// Package pcapio reads and writes classic libpcap capture files
// (the 0xa1b2c3d4 microsecond format, LINKTYPE_ETHERNET) and provides the
// in-memory Capture type the testbed's taps record into, standing in for
// the tcpdump process of the paper's router.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

const (
	magicMicroseconds = 0xa1b2c3d4
	versionMajor      = 2
	versionMinor      = 4
	linkTypeEthernet  = 1
	fileHeaderLen     = 24
	recordHeaderLen   = 16
	// MaxSnapLen is the snapshot length written to file headers.
	MaxSnapLen = 262144
)

// Record is one captured frame with its capture metadata.
type Record struct {
	Time time.Time
	// Data holds the captured frame bytes (full frames; we never truncate).
	Data []byte
}

// Writer emits a pcap stream to an io.Writer.
type Writer struct {
	w           *bufio.Writer
	wroteHeader bool
	// scratch coalesces record header + payload into a single buffered
	// write; it is reused (and grown to the largest record seen) across
	// WriteRecord calls, so the steady state is zero allocations per
	// record and one Write per record.
	scratch []byte
}

// NewWriter returns a Writer targeting w. The file header is emitted on the
// first WriteRecord (or by Flush on an empty capture).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:20], MaxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	w.wroteHeader = true
	return err
}

// WriteRecord appends one frame to the stream. Header and payload are
// coalesced into one buffered write through a reused scratch buffer.
func (w *Writer) WriteRecord(r Record) error {
	if !w.wroteHeader {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	need := recordHeaderLen + len(r.Data)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need+4096)
	}
	rec := w.scratch[:recordHeaderLen]
	sec := r.Time.Unix()
	usec := r.Time.Nanosecond() / 1000
	binary.LittleEndian.PutUint32(rec[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(usec))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(r.Data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(r.Data)))
	rec = append(rec, r.Data...)
	_, err := w.w.Write(rec)
	return err
}

// Flush writes any buffered bytes (and the header, if nothing was written).
func (w *Writer) Flush() error {
	if !w.wroteHeader {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader parses a pcap stream.
type Reader struct {
	r       *bufio.Reader
	bigEnd  bool
	nanosec bool
}

// ErrBadMagic is returned for streams that do not start with a known pcap
// magic number.
var ErrBadMagic = errors.New("pcapio: bad magic")

// NewReader validates the file header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading header: %w", err)
	}
	rd := &Reader{r: br}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicroseconds:
	case 0xa1b23c4d:
		rd.nanosec = true
	default:
		switch binary.BigEndian.Uint32(hdr[0:4]) {
		case magicMicroseconds:
			rd.bigEnd = true
		case 0xa1b23c4d:
			rd.bigEnd = true
			rd.nanosec = true
		default:
			return nil, ErrBadMagic
		}
	}
	return rd, nil
}

func (r *Reader) order() binary.ByteOrder {
	if r.bigEnd {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// ReadRecord returns the next frame, or io.EOF at end of stream.
func (r *Reader) ReadRecord() (Record, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	ord := r.order()
	sec := int64(ord.Uint32(hdr[0:4]))
	frac := int64(ord.Uint32(hdr[4:8]))
	capLen := ord.Uint32(hdr[8:12])
	if capLen > MaxSnapLen {
		return Record{}, fmt.Errorf("pcapio: record length %d exceeds snaplen", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcapio: reading record body: %w", err)
	}
	nsec := frac * 1000
	if r.nanosec {
		nsec = frac
	}
	return Record{Time: time.Unix(sec, nsec).UTC(), Data: data}, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Write emits records as one pcap stream to w.
func Write(w io.Writer, recs []Record) error {
	pw := NewWriter(w)
	for _, rec := range recs {
		if err := pw.WriteRecord(rec); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// WriteFile stores records as a pcap file at path.
func WriteFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads all records from a pcap file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// Capture is an in-memory packet sink, the testbed's stand-in for a
// tcpdump process attached to the router's LAN interface.
type Capture struct {
	Records []Record
	// arena bump-allocates record payload copies in 64 KiB chunks: one
	// allocation per chunk instead of one per frame. Chunks are retained
	// until Reset, so Record.Data slices stay stable until then.
	arena arena
	// bytes is the running sum of record data lengths (see Bytes).
	bytes int
}

// arena is a minimal bump allocator (pcapio stays stdlib-only, so it does
// not borrow the packet package's).
type arena struct {
	chunks [][]byte
	cur    int
}

func (a *arena) copyIn(b []byte) []byte {
	n := len(b)
	for {
		if a.cur == len(a.chunks) {
			size := 1 << 16
			if n > size {
				size = n
			}
			a.chunks = append(a.chunks, make([]byte, 0, size))
		}
		c := a.chunks[a.cur]
		if cap(c)-len(c) >= n {
			off := len(c)
			c = append(c, b...)
			a.chunks[a.cur] = c
			return c[off : off+n : off+n]
		}
		a.cur++
	}
}

func (a *arena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// Add appends a frame, copying data (into the capture's arena) so callers
// may reuse their buffers.
func (c *Capture) Add(t time.Time, data []byte) {
	c.Records = append(c.Records, Record{Time: t, Data: c.arena.copyIn(data)})
	c.bytes += len(data)
}

// Len returns the number of captured frames.
func (c *Capture) Len() int { return len(c.Records) }

// Bytes returns the total frame bytes the capture currently retains (the
// sum of record data lengths, maintained incrementally).
func (c *Capture) Bytes() int { return c.bytes }

// Reset empties the capture while keeping the record slice's and arena's
// capacity, so a pooled capture adds frames without allocating. Every
// previously returned Record (and its Data) is invalidated: the bytes will
// be overwritten by subsequent Adds. Only reuse a capture whose records
// have been fully consumed (written out, analyzed, or discarded).
func (c *Capture) Reset() {
	c.Records = c.Records[:0]
	c.arena.reset()
	c.bytes = 0
}
