package gen

import "testing"

// FuzzGenParse hammers the spec grammar, a trust boundary (CLI flags and
// daemon request bodies both reach it): any text must either fail to parse
// or yield a Spec that normalizes to a valid one and whose Validate, Name
// and Fingerprint return without panicking.
func FuzzGenParse(f *testing.F) {
	for _, seed := range []string{
		"pointer-chase:7",
		"hash-probe:42:ws=131072,loads=2,branch=30",
		"tree-walk:9:ws=524288,depth=50,ilp=0",
		"blocked-stream:3:branch=0",
		"branchy-parser:1: ws = 4096 , depth = 10 ",
		"pointer-chase:1:ws=4611686018427387905",
		"pointer-chase:18446744073709551615:depth=-1",
		"", "pointer-chase", "pointer-chase:x", "bogus:1",
		"pointer-chase:1:ws", "pointer-chase:1:nope=3", "pointer-chase:1:loads=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if err := s.Normalize().Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a spec that does not validate: %v", text, err)
		}
		_ = s.Validate()
		_ = s.Name()
		if _, err := s.Fingerprint(); err != nil {
			t.Fatalf("Parse(%q): fingerprint: %v", text, err)
		}
	})
}
