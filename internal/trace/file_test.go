package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"avfsim/internal/isa"
)

func TestFileRoundTripGenerated(t *testing.T) {
	g := MustNewGenerator(testParams())
	orig := Collect(g, 20000)

	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewSliceSource(orig), 0)
	if err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	if n != int64(len(orig)) {
		t.Fatalf("wrote %d, want %d", n, len(orig))
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(orig) {
		t.Fatalf("read %d, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], orig[i])
		}
	}
	// The encoding should be compact: well under 8 bytes/inst for
	// generated code.
	if perInst := float64(buf.Cap()) / float64(len(orig)); perInst > 8 {
		t.Logf("note: %.1f bytes/inst", perInst)
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	prop := func(raw []uint64) bool {
		insts := make([]isa.Inst, 0, len(raw))
		for _, r := range raw {
			in := isa.Inst{
				PC:    r &^ 3,
				Class: isa.Class(r % uint64(isa.NumClasses)),
				Dst:   isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
			}
			switch in.Class {
			case isa.ClassLoad:
				in.Dst = isa.IntReg(int(r>>8) % 32)
				in.Src1 = isa.IntReg(int(r>>16) % 32)
				in.Addr = r >> 3
			case isa.ClassStore:
				in.Src1 = isa.IntReg(int(r>>8) % 32)
				in.Src2 = isa.IntReg(int(r>>16) % 32)
				in.Addr = r >> 5
			case isa.ClassBranch:
				in.Src1 = isa.IntReg(int(r>>8) % 32)
				in.Taken = r&1 == 1
				if in.Taken {
					in.Target = r >> 7
				}
			case isa.ClassNop:
			default:
				in.Dst = isa.FPReg(int(r>>8) % 32)
				in.Src1 = isa.FPReg(int(r>>16) % 32)
				if r&2 != 0 {
					in.Src2 = isa.FPReg(int(r>>24) % 32)
				}
			}
			insts = append(insts, in)
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSliceSource(insts), 0); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(insts) {
			return false
		}
		for i := range got {
			if got[i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceFile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSliceSource(nil), 0); err != nil {
		t.Fatalf("WriteAll empty: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll empty: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("empty trace decoded %d records", len(got))
	}
}

func TestWriteAllMax(t *testing.T) {
	g := MustNewGenerator(testParams())
	var buf bytes.Buffer
	n, err := WriteAll(&buf, g, 123)
	if err != nil || n != 123 {
		t.Fatalf("WriteAll max: n=%d err=%v", n, err)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 123 {
		t.Fatalf("ReadAll: n=%d err=%v", len(got), err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                         // no header
		[]byte("NOPE\x01"),         // bad magic
		[]byte("AVFT\x63"),         // bad version
		[]byte("AVFT\x01\x0f"),     // invalid class 15
		[]byte("AVFT\x01\x01"),     // truncated after flags
		[]byte("AVFT\x01\x11\x00"), // class with dst flag but no dst byte
		// Register bytes that name no register. These used to decode
		// and panic the simulator at rename.
		[]byte("AVFT\x01\x21\x00\x64"), // int-ALU, src1 = 100
		[]byte("AVFT\x01\x11\x00\x40"), // int-ALU, dst one past the FP file
		[]byte("AVFT\x01\x41\x00\xff"), // src2 flag set, byte says absent
	}
	for i, raw := range cases {
		if len(raw) == 0 {
			// Empty file: readHeader fails.
			_, err := ReadAll(bytes.NewReader(raw))
			if err == nil {
				t.Errorf("case %d: no error for empty file", i)
			}
			continue
		}
		_, err := ReadAll(bytes.NewReader(raw))
		if err == nil {
			t.Errorf("case %d: garbage accepted", i)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: error %v is not ErrBadTrace", i, err)
		}
	}
}

func TestWriterRejectsInvalidClass(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(isa.Inst{Class: isa.Class(99)}); err == nil {
		t.Error("invalid class accepted")
	}
}

func TestSliceSourceAndLimit(t *testing.T) {
	insts := []isa.Inst{
		{PC: 0, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 4, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 8, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
	}
	s := NewSliceSource(insts)
	if got := Collect(s, 10); len(got) != 3 {
		t.Errorf("Collect = %d insts", len(got))
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted source still yields")
	}
	s.Reset()
	l := NewLimit(s, 2)
	if got := Collect(l, 10); len(got) != 2 {
		t.Errorf("Limit gave %d insts", len(got))
	}
	if _, ok := l.Next(); ok {
		t.Error("limit exceeded")
	}
}

func TestWriterCountAndFlushHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if w.Count() != 0 {
		t.Errorf("fresh writer Count = %d", w.Count())
	}
	in := isa.Inst{PC: 4, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Double flush is harmless.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 1 || got[0] != in {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

// FuzzTraceReader: arbitrary bytes never panic the decoder, everything
// it decodes is an instruction the simulator can run, and re-encoding
// the decoded instructions decodes back to the same instructions. The
// seeds under testdata/fuzz/FuzzTraceReader are a valid trace, a bad
// register, a bad class, a truncated varint and a bad magic.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		insts, _ := ReadAll(bytes.NewReader(raw))
		for i, in := range insts {
			if !in.Class.Valid() {
				t.Fatalf("inst %d: invalid class %d", i, in.Class)
			}
			for _, r := range []isa.Reg{in.Dst, in.Src1, in.Src2} {
				if r != isa.RegNone && !r.Valid() {
					t.Fatalf("inst %d: invalid register %d", i, r)
				}
			}
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSliceSource(insts), 0); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(insts) {
			t.Fatalf("re-decoded %d instructions, want %d", len(again), len(insts))
		}
		for i := range insts {
			if again[i] != insts[i] {
				t.Fatalf("inst %d: re-decoded %+v, want %+v", i, again[i], insts[i])
			}
		}
	})
}
