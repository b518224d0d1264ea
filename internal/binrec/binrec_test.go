package binrec

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes([]byte("MAGIC001"))
	w.U32(3)
	w.I64(-7)
	w.Bytes([]byte("abc"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(buf.Bytes())
	r.Magic("MAGIC001")
	n := r.Count(1)
	v := r.I64()
	s := string(r.Next(n))
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if n != 3 || v != -7 || s != "abc" {
		t.Fatalf("read %d, %d, %q; want 3, -7, \"abc\"", n, v, s)
	}
}

// TestReaderErrorsStick checks each way a read fails, and that every read
// after the first failure returns zero and keeps the first error.
func TestReaderErrorsStick(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"bad magic", []byte("NOTMAGIC\x01\x00\x00\x00"), func(r *Reader) { r.Magic("MAGIC001") }, "bad magic"},
		{"short magic", []byte("MAG"), func(r *Reader) { r.Magic("MAGIC001") }, "bad magic"},
		{"short field", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, io.ErrUnexpectedEOF.Error()},
		{"count past end", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5}, func(r *Reader) { r.Count(2) }, "exceeds"},
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff}, func(r *Reader) { r.Count(8) }, "exceeds"},
		{"trailing", []byte{1, 0, 0, 0, 9}, func(r *Reader) { r.U32() }, "trailing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(r)
			err := r.Done()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
			if r.U32() != 0 || r.I64() != 0 || r.Count(0) != 0 || r.Next(0) != nil {
				t.Error("a read after the failure returned data")
			}
			if r.Err() != err {
				t.Errorf("error changed from %v to %v", err, r.Err())
			}
		})
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestWriterErrorSticks(t *testing.T) {
	fw := &failWriter{}
	w := NewWriter(fw)
	w.Bytes(make([]byte, 1<<17)) // larger than the buffer: written through at once
	w.U32(1)
	w.Bytes(make([]byte, 1<<17))
	if err := w.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush returned %v, want the first write's error", err)
	}
	if fw.n != 1 {
		t.Errorf("underlying writer called %d times after failing, want 1 call in all", fw.n)
	}
}
