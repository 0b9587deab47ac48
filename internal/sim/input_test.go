package sim

import (
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/match"
	"wavescalar/internal/workload"
)

// TestUnboundLocalIndexPanics checks the local-index map's sentinel: New
// binds every (thread, instruction), and a key that was never bound reads
// -1, so offering its token panics instead of silently sharing local
// index 0's k-count, overflow keys and park list.
func TestUnboundLocalIndexPanics(t *testing.T) {
	w, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workload.Tiny)
	p, err := New(Baseline(BaselineArch()), inst.Prog, inst.Params(2), Memory(inst.Mem))
	if err != nil {
		t.Fatal(err)
	}
	for k, li := range p.li {
		if li < 0 {
			t.Fatalf("key %d left unbound by New", k)
		}
	}
	id := isa.InstID(0)
	pe := p.pe(p.loc(1, id))
	p.li[p.istKey(1, id)] = -1
	defer func() {
		if recover() == nil {
			t.Fatal("input of an unbound key did not panic")
		}
	}()
	pe.input(1, isa.Token{Tag: isa.Tag{Thread: 1}, Value: 1, Dest: isa.Target{Inst: id}}, 0)
}

// BenchmarkPhaseInputReinject measures the k-reject storm at INPUT: one
// instruction holds its k instances, parked tokens for younger waves are
// released by a freed entry, and phaseInput k-rejects every one of them
// straight back into parking. One op is the release, the re-insert that
// refills the quota, and the phase over all reinjected tokens.
func BenchmarkPhaseInputReinject(b *testing.B) {
	w, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	inst := w.Build(workload.Small)
	p, err := New(Baseline(BaselineArch()), inst.Prog, inst.Params(1), Memory(inst.Mem))
	if err != nil {
		b.Fatal(err)
	}
	id := isa.InstID(-1)
	for i := range p.prog.Insts {
		if p.required[i] == 0b011 {
			id = isa.InstID(i)
			break
		}
	}
	if id < 0 {
		b.Fatal("no two-operand instruction")
	}
	pe := p.pe(p.loc(0, id))
	li := int(p.li[p.istKey(0, id)])
	k := uint32(p.cfg.K)
	token := func(wave uint32) isa.Token {
		return isa.Token{Tag: isa.Tag{Wave: wave}, Value: 1, Dest: isa.Target{Inst: id}}
	}
	c := uint64(0)
	for wave := uint32(0); wave < k; wave++ {
		if out, _ := pe.mt.Insert(token(wave), li, 0b011, c, 12); out != match.Stored {
			b.Fatalf("fill wave %d: %v", wave, out)
		}
		c++
	}
	const parked = 32
	for wave := k; wave < k+parked; wave++ {
		pe.enqueueIn(inMsg{readyAt: c, tok: token(wave)})
	}
	pe.phaseInput(c)
	if pe.idleParked() != parked || !pe.inQ.empty() {
		b.Fatalf("setup: %d parked, %d queued; want %d, 0", pe.idleParked(), pe.inQ.len(), parked)
	}
	youngest := isa.Tag{Wave: k - 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c += 2
		pe.mt.Release(pe.mt.Lookup(id, li, youngest))
		pe.mt.Insert(token(k-1), li, 0b011, c, 12)
		pe.phaseInput(c + 1)
	}
	b.StopTimer()
	if pe.idleParked() != parked || !pe.inQ.empty() {
		b.Fatalf("end: %d parked, %d queued; want %d, 0", pe.idleParked(), pe.inQ.len(), parked)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*parked), "ns/attempt")
}
