package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassMapping(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpAdd, ClassIntALU},
		{OpSub, ClassIntALU},
		{OpXor, ClassIntALU},
		{OpAnd, ClassIntALU},
		{OpShl, ClassIntALU},
		{OpMul, ClassIntMul},
		{OpLoad, ClassMem},
		{OpStore, ClassMem},
		{OpBr, ClassBranch},
		{OpFAdd, ClassFPAdd},
		{OpFMul, ClassFPMul},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%v.Class() = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestIsFP(t *testing.T) {
	for op := OpNop; op < opCount; op++ {
		want := op == OpFAdd || op == OpFMul
		if op.IsFP() != want {
			t.Errorf("%v.IsFP() = %v", op, op.IsFP())
		}
	}
}

func TestHasDest(t *testing.T) {
	noDest := map[Op]bool{OpStore: true, OpBr: true, OpNop: true}
	for op := OpNop; op < opCount; op++ {
		if op.HasDest() == noDest[op] {
			t.Errorf("%v.HasDest() = %v", op, op.HasDest())
		}
	}
}

func TestALUResultSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 10, 4, 6},
		{OpXor, 0xff, 0x0f, 0xf0},
		{OpAnd, 0xff, 0x0f, 0x0f},
		{OpShl, 1, 4, 16},
		{OpShl, 1, 64 + 4, 16}, // shift amount masked to 6 bits
		{OpMul, 6, 7, 42},
	}
	for _, c := range cases {
		if got := ALUResult(c.op, c.a, c.b); got != c.want {
			t.Errorf("ALUResult(%v, %d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestFPOpsDifferFromIntOps(t *testing.T) {
	// FAdd must not alias Add, else the FP pipeline would be untestable.
	if ALUResult(OpFAdd, 100, 200) == ALUResult(OpAdd, 100, 200) {
		t.Error("FAdd indistinguishable from Add")
	}
	if ALUResult(OpFMul, 100, 200) == ALUResult(OpMul, 100, 200) {
		t.Error("FMul indistinguishable from Mul")
	}
}

func TestEffAddrWraps(t *testing.T) {
	if got := EffAddr(10, -4); got != 6 {
		t.Fatalf("EffAddr(10,-4) = %d", got)
	}
	if got := EffAddr(2, -4); got != ^uint64(0)-1 {
		t.Fatalf("EffAddr(2,-4) = %#x", got)
	}
}

func TestStateInitNonZero(t *testing.T) {
	s := NewState()
	if s.IntReg[1] == 0 || s.FPReg[1] == 0 {
		t.Fatal("registers initialized to zero; dataflow bugs could hide")
	}
	if s.IntReg[1] == s.IntReg[2] {
		t.Fatal("registers not distinct")
	}
}

func TestExecLoadStore(t *testing.T) {
	s := NewState()
	s.IntReg[2] = 0xdead
	s.Exec(Inst{Op: OpStore, Src1: 1, Src2: 2, Addr: 1024})
	if got := s.Mem[1024]; got != 0xdead {
		t.Fatalf("store wrote %#x", got)
	}
	s.Exec(Inst{Op: OpLoad, Dest: 3, Src1: 1, Addr: 1024})
	if got := s.IntReg[3]; got != 0xdead {
		t.Fatalf("load read %#x", got)
	}
}

func TestExecBranchNoEffect(t *testing.T) {
	s := NewState()
	before := *s
	s.Exec(Inst{Op: OpBr, Src1: 4, Taken: true, Target: 0x40})
	if s.IntReg != before.IntReg || s.FPReg != before.FPReg {
		t.Fatal("branch modified register state")
	}
}

func TestDiffDetectsEveryField(t *testing.T) {
	a, b := NewState(), NewState()
	if d := a.Diff(b); d != "" {
		t.Fatalf("fresh states differ: %s", d)
	}
	b.IntReg[5]++
	if d := a.Diff(b); !strings.Contains(d, "r5") {
		t.Fatalf("int diff not detected: %q", d)
	}
	b.IntReg[5]--
	b.FPReg[6]++
	if d := a.Diff(b); !strings.Contains(d, "f6") {
		t.Fatalf("fp diff not detected: %q", d)
	}
	b.FPReg[6]--
	b.Mem[0x100] = 7
	if d := a.Diff(b); !strings.Contains(d, "mem") {
		t.Fatalf("mem diff not detected: %q", d)
	}
	a.Mem[0x100] = 7
	if d := a.Diff(b); d != "" {
		t.Fatalf("states should match: %s", d)
	}
}

func TestDiffTreatsAbsentAsZero(t *testing.T) {
	a, b := NewState(), NewState()
	a.Mem[0x200] = 0
	if d := a.Diff(b); d != "" {
		t.Fatalf("explicit zero should equal absent: %s", d)
	}
}

// Property: Exec is deterministic — executing the same instruction sequence
// on identical states yields identical states.
func TestQuickExecDeterministic(t *testing.T) {
	f := func(ops []uint8) bool {
		a, b := NewState(), NewState()
		for i, raw := range ops {
			op := Op(raw%uint8(opCount-1)) + 1
			in := Inst{
				Op:   op,
				Dest: int8(i % NumIntRegs),
				Src1: int8((i + 3) % NumIntRegs),
				Src2: int8((i + 7) % NumIntRegs),
				Imm:  int64(i * 8),
				Addr: uint64(i%16) * 8,
			}
			a.Exec(in)
			b.Exec(in)
		}
		return a.Diff(b) == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	in := Inst{Seq: 12, Op: OpLoad, Dest: 3, Src1: 1, Imm: 8}
	if s := in.String(); !strings.Contains(s, "ld") {
		t.Errorf("load string %q", s)
	}
	in = Inst{Seq: 13, Op: OpStore, Src1: 1, Src2: 2, Imm: 8}
	if s := in.String(); !strings.Contains(s, "st") {
		t.Errorf("store string %q", s)
	}
	in = Inst{Seq: 14, Op: OpBr, Src1: 1, Taken: true}
	if s := in.String(); !strings.Contains(s, "br") {
		t.Errorf("branch string %q", s)
	}
	if Op(200).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestAllOpStringsDistinct(t *testing.T) {
	seen := map[string]Op{}
	for op := OpNop; op < opCount; op++ {
		s := op.String()
		if s == "" {
			t.Fatalf("op %d has empty mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ops %v and %v share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestInstStringVariants(t *testing.T) {
	cases := []Inst{
		{Op: OpLoadFP, Dest: 2, Src1: 1, Imm: 16},
		{Op: OpAdd, Dest: 1, Src1: 2, Src2: 3},
		{Op: OpNop},
		{Op: OpFMul, Dest: 4, Src1: 5, Src2: 6},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Fatalf("empty string for %v", in.Op)
		}
	}
}

func TestLoadFPClassification(t *testing.T) {
	if OpLoadFP.IsFP() {
		t.Error("FP loads issue on the integer side; IsFP must be false")
	}
	if !OpLoadFP.DestIsFP() {
		t.Error("FP load writes the FP register file")
	}
	if !OpLoadFP.IsMem() || OpLoadFP.Class() != ClassMem {
		t.Error("FP load is a memory operation")
	}
	if !OpFAdd.DestIsFP() || OpAdd.DestIsFP() {
		t.Error("DestIsFP wrong for ALU ops")
	}
}

func TestExecAllMatchesExec(t *testing.T) {
	insts := []Inst{
		{Op: OpAdd, Dest: 1, Src1: 2, Src2: 3},
		{Op: OpStore, Src1: 1, Src2: 2, Addr: 64},
		{Op: OpLoadFP, Dest: 5, Src1: 1, Addr: 64},
	}
	a, b := NewState(), NewState()
	a.ExecAll(insts)
	for _, in := range insts {
		b.Exec(in)
	}
	if d := a.Diff(b); d != "" {
		t.Fatalf("ExecAll differs from Exec loop: %s", d)
	}
	if a.ReadMem(64) == 0 {
		t.Fatal("store did not reach memory")
	}
	a.WriteMem(128, 7)
	if a.ReadMem(128) != 7 {
		t.Fatal("WriteMem/ReadMem roundtrip")
	}
}

// TestReserveIsInvisible: Reserve gives the hot and warm regions room
// without changing what they hold. Writes inside the room extend a region
// without allocating, and a reserved state reads and diffs exactly like
// one grown from empty, including past the room and in the stream.
func TestReserveIsInvisible(t *testing.T) {
	a, b := NewState(), NewState()
	b.Reserve(4<<10, 64<<10)
	if len(b.Hot) != 0 || len(b.Warm) != 0 || cap(b.Hot) < 512 || cap(b.Warm) < 8192 {
		t.Fatalf("Reserve: hot len %d cap %d, warm len %d cap %d; want empty with room for 512 and 8192 words",
			len(b.Hot), cap(b.Hot), len(b.Warm), cap(b.Warm))
	}
	// Each call writes past both regions' lengths, several words on.
	k := uint64(0)
	if n := testing.AllocsPerRun(10, func() {
		k += 40
		b.WriteMem(HotBase+k*8, k)
		b.WriteMem(WarmBase+k*80, k)
	}); n != 0 {
		t.Errorf("writes inside the reserved room allocated %.0f times", n)
	}
	for i := uint64(40); i <= k; i += 40 {
		a.WriteMem(HotBase+i*8, i)
		a.WriteMem(WarmBase+i*80, i)
	}
	for _, s := range []*State{a, b} {
		s.WriteMem(WarmBase+9000*8, 3)
		s.WriteMem(StreamBase+100*8, 4)
	}
	if d := a.Diff(b); d != "" {
		t.Fatalf("reserved state differs from one grown from empty: %s", d)
	}
	if got := b.ReadMem(HotBase + 41*8); got != 0 {
		t.Errorf("gap word read %#x, want 0", got)
	}
	if got := b.ReadMem(WarmBase + 9000*8); got != 3 {
		t.Errorf("warm word past the room read %#x, want 3", got)
	}
	c := NewState()
	c.Reserve(-8, 0)
	if cap(c.Hot) != 0 || cap(c.Warm) != 0 {
		t.Errorf("Reserve(-8, 0) made room: hot cap %d, warm cap %d", cap(c.Hot), cap(c.Warm))
	}
}
