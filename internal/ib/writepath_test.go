package ib

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// eagerWR builds a signaled three-SGE RDMA write laid out like an eager
// packet: header, payload and tail, contiguous in src.
func eagerWR(src *machine.Buffer, smr, dmr *MR) *SendWR {
	return &SendWR{
		Opcode: OpRDMAWrite, Signaled: true,
		SGL: []SGE{
			{Addr: src.Addr, Len: 16, LKey: smr.LKey},
			{Addr: src.Addr + 16, Len: 32, LKey: smr.LKey},
			{Addr: src.Addr + 48, Len: 8, LKey: smr.LKey},
		},
		Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey},
	}
}

// TestRDMAWriteSteadyStateAllocFree pins the eager data path's
// allocation budget: once the write records, the CQ backing and the
// engine's queues are warm, a signaled RDMA write plus the PollInto
// that drains its completion allocates nothing.
func TestRDMAWriteSteadyStateAllocFree(t *testing.T) {
	const warm, writes = 64, 2000
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(56)
	dst := r.n1.Host.Alloc(56)
	for i := range src.Data {
		src.Data[i] = byte(i + 1)
	}
	var mallocs uint64
	r.eng.Spawn("writer", func(p *sim.Proc) {
		smr, err := a.ctx.RegMRBuffer(p, a.pd, src)
		if err != nil {
			t.Error(err)
			return
		}
		dmr, err := b.ctx.RegMRBuffer(p, b.pd, dst)
		if err != nil {
			t.Error(err)
			return
		}
		wr := eagerWR(src, smr, dmr)
		out := make([]CQE, 4)
		var m0, m1 runtime.MemStats
		for i := 0; i < warm+writes; i++ {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			wr.WRID = uint64(i)
			if err := a.qp.PostSend(p, wr); err != nil {
				t.Error(err)
				return
			}
			for a.cq.PollInto(p, out) == 0 {
				a.cq.Notify.Wait(p)
			}
			if out[0].Status != StatusSuccess || out[0].WRID != uint64(i) || out[0].ByteLen != 56 {
				t.Errorf("completion %d: %+v", i, out[0])
				return
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("RDMA writes did not move bytes")
	}
	if per := float64(mallocs) / writes; per > 0.01 {
		t.Fatalf("%d allocations over %d signaled writes (%.3f per write), want at most 0.01 per write", mallocs, writes, per)
	}
}

// TestWritePoolCapsPayloadBuffers checks that a completed large write
// does not leave its payload buffer pinned in the HCA's free list,
// while small buffers stay there for reuse.
func TestWritePoolCapsPayloadBuffers(t *testing.T) {
	const big = 2 << 20
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(big)
	dst := r.n1.Host.Alloc(big)
	for i := range src.Data {
		src.Data[i] = byte(i * 7)
	}
	r.eng.Spawn("writer", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		for i, n := range []int{64, big} {
			err := a.qp.PostSend(p, &SendWR{
				WRID: uint64(i), Opcode: OpRDMAWrite, Signaled: true,
				SGL:    []SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}},
				Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if c := a.cq.WaitPoll(p, 1)[0]; c.Status != StatusSuccess || c.ByteLen != n {
				t.Errorf("completion %+v", c)
			}
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("2 MiB RDMA write did not move bytes")
	}
	if len(r.h0.writeFree) == 0 {
		t.Fatal("no write record returned to the free list")
	}
	for i, op := range r.h0.writeFree {
		if c := cap(op.payload); c > maxPooledPayload {
			t.Errorf("free write %d keeps a %d-byte payload buffer, cap is %d", i, c, maxPooledPayload)
		}
	}
}

// TestPostedWriteKeepsRemoteAcrossReset resets the sender's QP and
// reconnects it to a third node while a write is on the wire: the bytes
// must still land at the remote the QP was bound to when the write was
// posted, and complete successfully.
func TestPostedWriteKeepsRemoteAcrossReset(t *testing.T) {
	r := newRig()
	n2 := machine.NewNode(2)
	h2 := r.h0.Fabric().AttachHCA(n2)
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	c := newEndpoint(h2, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(4096)
	dstB := r.n1.Host.Alloc(4096)
	dstC := n2.Host.Alloc(4096)
	for i := range src.Data {
		src.Data[i] = byte(i ^ 0x3C)
	}
	r.eng.Spawn("writer", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		bmr, _ := b.ctx.RegMRBuffer(p, b.pd, dstB)
		cmr, _ := c.ctx.RegMRBuffer(p, c.pd, dstC)
		if bmr.RKey != cmr.RKey || bmr.Addr != cmr.Addr {
			// Same key and address on both remotes, so a write that
			// followed the new binding would land in dstC unnoticed
			// by the key check.
			t.Errorf("remote MRs differ: %#x@%#x vs %#x@%#x", bmr.RKey, bmr.Addr, cmr.RKey, cmr.Addr)
			return
		}
		err := a.qp.PostSend(p, &SendWR{
			WRID: 7, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: 4096, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: bmr.Addr, RKey: bmr.RKey},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if bytes.Equal(dstB.Data, src.Data) {
			t.Error("write landed before the reset: the test does not reorder anything")
			return
		}
		a.qp.Reset()
		if err := a.qp.Connect(h2.LID, c.qp.QPN); err != nil {
			t.Error(err)
			return
		}
		if e := a.cq.WaitPoll(p, 1)[0]; e.Status != StatusSuccess || e.WRID != 7 || e.ByteLen != 4096 {
			t.Errorf("completion %+v", e)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dstB.Data, src.Data) {
		t.Error("bytes did not land at the remote bound at post time")
	}
	if !bytes.Equal(dstC.Data, make([]byte, 4096)) {
		t.Error("bytes landed at the remote bound after the reset")
	}
}

// TestBadRKeyLandingEventOrder pins the order of a faulted landing: at
// the landing instant the QP enters the error state and flushes its
// posted receive, and the write's REM_ACCESS_ERR completion follows one
// wire latency later.
func TestBadRKeyLandingEventOrder(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(64)
	rbuf := r.n0.Host.Alloc(64)
	type wake struct {
		at    sim.Time
		n     int
		state QPState
	}
	var wakes []wake
	r.eng.Spawn("observer", func(p *sim.Proc) {
		for len(wakes) < 2 {
			a.cq.Notify.Wait(p)
			wakes = append(wakes, wake{p.Now(), a.cq.Len(), a.qp.State})
		}
	})
	var got []CQE
	r.eng.Spawn("send", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		rmr, _ := a.ctx.RegMRBuffer(p, a.pd, rbuf)
		if err := a.qp.PostRecv(p, &RecvWR{WRID: 1, SGL: []SGE{{Addr: rbuf.Addr, Len: 64, LKey: rmr.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		err := a.qp.PostSend(p, &SendWR{WRID: 2, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: 64, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: 0x1000, RKey: 0xBEEF}})
		if err != nil {
			t.Error(err)
			return
		}
		for len(got) < 2 {
			got = append(got, a.cq.WaitPoll(p, 2)...)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 ||
		got[0].WRID != 1 || got[0].Opcode != OpRecv || got[0].Status != StatusWRFlushErr ||
		got[1].WRID != 2 || got[1].Opcode != OpRDMAWrite || got[1].Status != StatusRemAccessErr {
		t.Fatalf("completions %+v, want the receive flush then REM_ACCESS_ERR", got)
	}
	if len(wakes) != 2 {
		t.Fatalf("observer saw %d pushes, want 2", len(wakes))
	}
	if w := wakes[0]; w.state != QPError || w.n != 1 {
		t.Errorf("at the flush: state %d with %d queued, want QPError with 1", w.state, w.n)
	}
	if d := wakes[1].at - wakes[0].at; d != r.plat.IBLatency {
		t.Errorf("REM_ACCESS_ERR %v after the flush, want one wire latency (%v)", d, r.plat.IBLatency)
	}
	if a.qp.State != QPError {
		t.Fatal("QP not in error state after remote fault")
	}
}
