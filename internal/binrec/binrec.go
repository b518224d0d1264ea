// Package binrec reads and writes the little-endian records of the binary
// spill codecs: profiles (PXPRF001), slice trees (PXSLC001) and the trace
// trailer (PXTRC003). It is the one place the trust-boundary rule lives:
// every length prefix is checked against the bytes that remain before the
// caller allocates for it, so a corrupt encoding costs an error, not memory.
//
// Both directions keep a sticky error, so a codec spells its fields in
// order and checks once at the end.
package binrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Order is the byte order of every field.
var Order = binary.LittleEndian

// Reader reads fields from an encoding held in memory. The first read past
// the end, or the first length prefix the remaining bytes cannot hold, sets
// Err; every later read returns zero.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads data from its first byte.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Magic consumes the format's leading magic, failing the reader if data
// does not start with it.
func (r *Reader) Magic(magic string) {
	if r.err == nil && (len(r.buf) < len(magic) || string(r.buf[:len(magic)]) != magic) {
		r.err = fmt.Errorf("bad magic %q", r.buf[:min(len(r.buf), len(magic))])
	}
	r.Next(len(magic))
}

// Next returns the next n bytes, aliasing the input, or nil once the reader
// has failed.
func (r *Reader) Next(n int) []byte {
	if r.err == nil && n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return Order.Uint32(b)
	}
	return 0
}

// I64 reads an int64.
func (r *Reader) I64() int64 {
	if b := r.Next(8); b != nil {
		return int64(Order.Uint64(b))
	}
	return 0
}

// Count reads a uint32 length prefix of elements that each take at least
// minSize bytes, and rejects one that the remaining bytes cannot hold, so
// nothing allocated from it outgrows the input.
func (r *Reader) Count(minSize int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(minSize) > uint64(len(r.buf)) {
		r.err = fmt.Errorf("length %d exceeds the %d bytes that remain", n, len(r.buf))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// I64s reads a length-prefixed list of int64s, nil when empty. It takes
// the list's bytes in one read, so a long list costs one bounds check.
func (r *Reader) I64s() []int64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	b := r.Next(8 * n)
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(Order.Uint64(b[8*i:]))
	}
	return v
}

// Err returns the first read error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first read error, or an error if any input is left
// unread: an encoding ends with its last record.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after the last record", len(r.buf))
	}
	return r.err
}

// Writer writes fields through a buffer. The first write error sticks
// (bufio.Writer keeps it): later writes are skipped and Flush returns it.
type Writer struct {
	w       *bufio.Writer
	scratch [8]byte
}

// NewWriter buffers writes to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriterSize(w, 1<<16)} }

// Bytes writes b verbatim.
func (w *Writer) Bytes(b []byte) { w.w.Write(b) }

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	Order.PutUint32(w.scratch[:4], v)
	w.Bytes(w.scratch[:4])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) {
	Order.PutUint64(w.scratch[:], uint64(v))
	w.Bytes(w.scratch[:])
}

// I64s writes a length-prefixed list of int64s.
func (w *Writer) I64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// Flush writes out the buffer and returns the first write error, or nil.
func (w *Writer) Flush() error { return w.w.Flush() }
