package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"avfsim/internal/isa"
)

// Binary trace-file format (little-endian, varint-delta encoded):
//
//	header:  magic "AVFT" | version u8
//	record:  flags u8 | pc-delta varint | [dst u8] [src1 u8] [src2 u8]
//	         [addr-delta varint] [target-delta varint]
//
// PC, Addr, and Target are delta-encoded against the previous record's
// values (zigzag varints), which keeps sequential code and streaming data
// compact. Flag bits say which optional fields follow.

const (
	fileMagic   = "AVFT"
	fileVersion = 1
)

// Record flag layout: low 4 bits = class, high bits = field presence.
const (
	flagClassMask = 0x0f
	flagHasDst    = 0x10
	flagHasSrc1   = 0x20
	flagHasSrc2   = 0x40
	flagTaken     = 0x80
)

// ErrBadTrace is returned when a trace file is malformed.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer encodes instructions to a trace file.
type Writer struct {
	w          *bufio.Writer
	prevPC     uint64
	prevAddr   uint64
	prevTarget uint64
	headerDone bool
	n          int64
	scratch    [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (tw *Writer) putVarint(v uint64) error {
	n := binary.PutUvarint(tw.scratch[:], v)
	_, err := tw.w.Write(tw.scratch[:n])
	return err
}

// Write encodes one instruction.
func (tw *Writer) Write(in isa.Inst) error {
	if !tw.headerDone {
		if _, err := tw.w.WriteString(fileMagic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(fileVersion); err != nil {
			return err
		}
		tw.headerDone = true
	}
	if !in.Class.Valid() {
		return fmt.Errorf("trace: cannot encode invalid class %d", in.Class)
	}
	flags := byte(in.Class)
	if in.Dst != isa.RegNone {
		flags |= flagHasDst
	}
	if in.Src1 != isa.RegNone {
		flags |= flagHasSrc1
	}
	if in.Src2 != isa.RegNone {
		flags |= flagHasSrc2
	}
	if in.Taken {
		flags |= flagTaken
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	if err := tw.putVarint(zigzag(int64(in.PC - tw.prevPC))); err != nil {
		return err
	}
	tw.prevPC = in.PC
	if in.Dst != isa.RegNone {
		if err := tw.w.WriteByte(byte(in.Dst)); err != nil {
			return err
		}
	}
	if in.Src1 != isa.RegNone {
		if err := tw.w.WriteByte(byte(in.Src1)); err != nil {
			return err
		}
	}
	if in.Src2 != isa.RegNone {
		if err := tw.w.WriteByte(byte(in.Src2)); err != nil {
			return err
		}
	}
	if in.Class.IsMem() {
		if err := tw.putVarint(zigzag(int64(in.Addr - tw.prevAddr))); err != nil {
			return err
		}
		tw.prevAddr = in.Addr
	}
	if in.Class == isa.ClassBranch && in.Taken {
		if err := tw.putVarint(zigzag(int64(in.Target - tw.prevTarget))); err != nil {
			return err
		}
		tw.prevTarget = in.Target
	}
	tw.n++
	return nil
}

// Count returns the number of instructions written.
func (tw *Writer) Count() int64 { return tw.n }

// Flush writes buffered data to the underlying writer.
func (tw *Writer) Flush() error {
	if !tw.headerDone {
		// An empty trace still gets a header.
		if _, err := tw.w.WriteString(fileMagic); err != nil {
			return err
		}
		if err := tw.w.WriteByte(fileVersion); err != nil {
			return err
		}
		tw.headerDone = true
	}
	return tw.w.Flush()
}

// Reader decodes a trace file; it implements Source.
type Reader struct {
	r          *bufio.Reader
	prevPC     uint64
	prevAddr   uint64
	prevTarget uint64
	headerDone bool
	err        error
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Err returns the first decode error encountered (io.EOF is not an error).
func (tr *Reader) Err() error { return tr.err }

func (tr *Reader) readHeader() error {
	var magic [5]byte
	if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
		return fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(magic[:4]) != fileMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:4])
	}
	if magic[4] != fileVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadTrace, magic[4])
	}
	tr.headerDone = true
	return nil
}

// Next implements Source. On malformed input, it ends the stream and
// records the error, retrievable via Err.
func (tr *Reader) Next() (isa.Inst, bool) {
	if tr.err != nil {
		return isa.Inst{}, false
	}
	if !tr.headerDone {
		if err := tr.readHeader(); err != nil {
			tr.err = err
			return isa.Inst{}, false
		}
	}
	flags, err := tr.r.ReadByte()
	if err == io.EOF {
		return isa.Inst{}, false
	}
	if err != nil {
		tr.err = err
		return isa.Inst{}, false
	}
	in := isa.Inst{Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	in.Class = isa.Class(flags & flagClassMask)
	if !in.Class.Valid() {
		tr.err = fmt.Errorf("%w: invalid class %d", ErrBadTrace, flags&flagClassMask)
		return isa.Inst{}, false
	}
	d, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = fmt.Errorf("%w: truncated pc: %v", ErrBadTrace, err)
		return isa.Inst{}, false
	}
	tr.prevPC += uint64(unzigzag(d))
	in.PC = tr.prevPC
	readReg := func(dst *isa.Reg) bool {
		b, err := tr.r.ReadByte()
		if err != nil {
			tr.err = fmt.Errorf("%w: truncated register: %v", ErrBadTrace, err)
			return false
		}
		if !isa.Reg(b).Valid() {
			tr.err = fmt.Errorf("%w: invalid register %d", ErrBadTrace, b)
			return false
		}
		*dst = isa.Reg(b)
		return true
	}
	if flags&flagHasDst != 0 && !readReg(&in.Dst) {
		return isa.Inst{}, false
	}
	if flags&flagHasSrc1 != 0 && !readReg(&in.Src1) {
		return isa.Inst{}, false
	}
	if flags&flagHasSrc2 != 0 && !readReg(&in.Src2) {
		return isa.Inst{}, false
	}
	if in.Class.IsMem() {
		d, err := binary.ReadUvarint(tr.r)
		if err != nil {
			tr.err = fmt.Errorf("%w: truncated addr: %v", ErrBadTrace, err)
			return isa.Inst{}, false
		}
		tr.prevAddr += uint64(unzigzag(d))
		in.Addr = tr.prevAddr
	}
	if in.Class == isa.ClassBranch {
		in.Taken = flags&flagTaken != 0
		if in.Taken {
			d, err := binary.ReadUvarint(tr.r)
			if err != nil {
				tr.err = fmt.Errorf("%w: truncated target: %v", ErrBadTrace, err)
				return isa.Inst{}, false
			}
			tr.prevTarget += uint64(unzigzag(d))
			in.Target = tr.prevTarget
		}
	}
	return in, true
}

// WriteAll encodes all instructions from src (up to max, if max > 0) to w.
// It returns the number written.
func WriteAll(w io.Writer, src Source, max int64) (int64, error) {
	tw := NewWriter(w)
	var n int64
	for max <= 0 || n < max {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(in); err != nil {
			return n, err
		}
		n++
	}
	return n, tw.Flush()
}

// ReadAll decodes every instruction in r.
func ReadAll(r io.Reader) ([]isa.Inst, error) {
	tr := NewReader(r)
	var out []isa.Inst
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out, tr.Err()
}
