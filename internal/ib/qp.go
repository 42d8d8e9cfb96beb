package ib

import (
	"encoding/binary"
	"fmt"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// QPState is the reliable-connection state machine, reduced to the
// states the paper's software distinguishes.
type QPState int

const (
	QPReset QPState = iota
	QPConnected
	QPError
)

// QP is a reliable-connected queue pair.
type QP struct {
	ctx    *Context
	QPN    uint32
	PD     *PD
	SendCQ *CQ
	RecvCQ *CQ
	State  QPState

	remote *QP

	// RateCap, when positive, bounds this QP's effective transfer rate
	// (bytes/s) below whatever the fabric would allow. The proxied
	// 'Intel MPI on Xeon Phi' path uses it to model host-staged relay
	// throughput.
	RateCap float64

	recvQueue []*RecvWR
	// pending holds SEND payloads that arrived before a receive was
	// posted (the simulator's RNR condition).
	pending []inbound

	// Stats.
	PostedSends int64
	PostedRecvs int64

	// Telemetry handles, created with the QP when Fabric.Metrics is
	// installed (nil otherwise; recording through them is a no-op).
	postedC    *metrics.Counter
	completedC *metrics.Counter
}

type inbound struct {
	data   []byte
	imm    uint32
	hasImm bool
	srcQPN uint32
}

// CreateQP allocates an RC queue pair bound to the given CQs.
func (c *Context) CreateQP(pd *PD, sendCQ, recvCQ *CQ) *QP {
	h := c.HCA
	h.nextQPN++
	qp := &QP{ctx: c, QPN: h.nextQPN, PD: pd, SendCQ: sendCQ, RecvCQ: recvCQ, State: QPReset}
	h.qps[qp.QPN] = qp
	if reg := h.fab.Metrics; reg != nil {
		name := fmt.Sprintf("qp%#x", qp.QPN)
		qp.postedC = reg.Counter(h.actor, name+".posted")
		qp.completedC = reg.Counter(h.actor, name+".completed")
	}
	return qp
}

// SetError forces the QP into the error state and flushes every posted
// receive with WR_FLUSH_ERR, as the RC state machine does. Pending
// inbound messages are dropped.
func (qp *QP) SetError() {
	if qp.State == QPError {
		return
	}
	qp.State = QPError
	for _, wr := range qp.recvQueue {
		qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusWRFlushErr, Opcode: OpRecv, QPN: qp.QPN})
	}
	qp.recvQueue = nil
	qp.pending = nil
}

// Reset returns an errored QP to the Reset state so it can be
// reconnected with Connect. SetError already flushed the receive
// queue; Reset drops the remote binding so stale traffic cannot use
// it. The QP object (and its QPN) survives, so the peer's existing
// Connect binding to this QP remains valid across the cycle.
func (qp *QP) Reset() {
	qp.State = QPReset
	qp.remote = nil
	qp.recvQueue = nil
	qp.pending = nil
}

// Connect transitions the QP to RTS against the remote (lid, qpn). Both
// ends must Connect for traffic to flow; ConnectPair does both.
func (qp *QP) Connect(lid uint16, qpn uint32) error {
	h, err := qp.ctx.HCA.fab.HCAByLID(lid)
	if err != nil {
		return err
	}
	r, ok := h.qps[qpn]
	if !ok {
		return fmt.Errorf("ib: QPN %#x not found on LID %d", qpn, lid)
	}
	qp.remote = r
	qp.State = QPConnected
	return nil
}

// ConnectPair wires a and b to each other.
func ConnectPair(a, b *QP) error {
	if err := a.Connect(b.ctx.HCA.LID, b.QPN); err != nil {
		return err
	}
	return b.Connect(a.ctx.HCA.LID, a.QPN)
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(p *sim.Proc, wr *RecvWR) error {
	if qp.State == QPError {
		return fmt.Errorf("ib: QP %#x in error state", qp.QPN)
	}
	// Validate SGEs now, as a real post does.
	for _, sge := range wr.SGL {
		if _, _, err := qp.ctx.HCA.lookupMR(sge.LKey, sge.Addr, sge.Len); err != nil {
			return fmt.Errorf("ib: post recv: %w", err)
		}
	}
	p.Sleep(qp.ctx.HCA.fab.Plat.PostCost(qp.ctx.Loc))
	qp.PostedRecvs++
	qp.postedC.Inc()
	if len(qp.pending) > 0 {
		in := qp.pending[0]
		qp.pending = qp.pending[1:]
		qp.deliver(in, wr)
		return nil
	}
	qp.recvQueue = append(qp.recvQueue, wr)
	return nil
}

// arrive hands an inbound SEND or WRITE_IMM to the oldest posted
// receive, or holds it until one is posted (RNR).
func (qp *QP) arrive(in inbound) {
	if len(qp.recvQueue) > 0 {
		wr := qp.recvQueue[0]
		qp.recvQueue = qp.recvQueue[1:]
		qp.deliver(in, wr)
		return
	}
	qp.ctx.HCA.RNRWaits++
	qp.pending = append(qp.pending, in)
}

// deliver scatters an inbound SEND payload into a posted receive and
// completes it on the receive CQ at the current virtual time.
func (qp *QP) deliver(in inbound, wr *RecvWR) {
	h := qp.ctx.HCA
	total := 0
	for _, sge := range wr.SGL {
		total += sge.Len
	}
	if len(in.data) > total {
		qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusLocLenErr, Opcode: OpRecv, QPN: qp.QPN, SrcQPN: in.srcQPN})
		return
	}
	rem := in.data
	for _, sge := range wr.SGL {
		if len(rem) == 0 {
			break
		}
		n := sge.Len
		if n > len(rem) {
			n = len(rem)
		}
		dst, _, err := h.lookupMR(sge.LKey, sge.Addr, n)
		if err != nil {
			qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusLocProtErr, Opcode: OpRecv, QPN: qp.QPN, SrcQPN: in.srcQPN})
			return
		}
		copy(dst, rem[:n])
		rem = rem[n:]
	}
	qp.RecvCQ.push(CQE{
		WRID: wr.WRID, Status: StatusSuccess, Opcode: OpRecv,
		ByteLen: len(in.data), Imm: in.imm, HasImm: in.hasImm,
		QPN: qp.QPN, SrcQPN: in.srcQPN,
	})
}

// gather snapshots the local SGL into one contiguous payload, reusing
// buf's backing when it is large enough, and returns also the slowest
// source-domain DMA read rate across elements and the memory kind of
// the first element (the telemetry source direction).
func (qp *QP) gather(buf []byte, sgl []SGE) ([]byte, float64, machine.DomainKind, error) {
	h := qp.ctx.HCA
	plat := h.fab.Plat
	rate := plat.HCAReadHost
	srcKind := machine.HostMem
	total := 0
	for _, sge := range sgl {
		total += sge.Len
	}
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	buf = buf[:0]
	for i, sge := range sgl {
		src, mr, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
		if err != nil {
			return nil, 0, srcKind, err
		}
		if i == 0 {
			srcKind = mr.Dom.Kind
		}
		if r := plat.HCARead(mr.Dom.Kind); r < rate {
			rate = r
		}
		buf = append(buf, src...)
	}
	return buf, rate, srcKind, nil
}

func minRate(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// capRate applies the QP's RateCap, if set.
func (qp *QP) capRate(r float64) float64 {
	if qp.RateCap > 0 {
		return minRate(r, qp.RateCap)
	}
	return r
}

// PostSend posts a send-queue work request: SEND, SEND_IMM, RDMA_WRITE,
// RDMA_WRITE_IMM or RDMA_READ. Validation errors (bad lkey, bad state)
// are returned synchronously like ibv_post_send; remote faults surface
// as error completions.
func (qp *QP) PostSend(p *sim.Proc, wr *SendWR) error {
	h := qp.ctx.HCA
	plat := h.fab.Plat
	if qp.State != QPConnected {
		return fmt.Errorf("ib: post send on QP %#x in state %d", qp.QPN, qp.State)
	}
	rem := qp.remote
	p.Sleep(plat.PostCost(qp.ctx.Loc))
	qp.PostedSends++
	qp.postedC.Inc()
	h.WRs++

	switch wr.Opcode {
	case OpSend, OpSendImm:
		payload, readRate, _, err := qp.gather(nil, wr.SGL)
		if err != nil {
			return fmt.Errorf("ib: post send: %w", err)
		}
		if reg := h.fab.Metrics; reg != nil {
			reg.Counter(h.actor, "send.bytes").Add(int64(len(payload)))
		}
		rate := qp.capRate(minRate(plat.IBBandwidth, minRate(readRate, plat.HCAWriteHost)))
		arrive := h.egress.ReserveRate(len(payload), rate)
		arrive = h.deliverVia(arrive, rem.ctx.HCA, len(payload), rate)
		h.BytesOut += int64(len(payload))
		eng := h.fab.Eng
		eng.At(arrive, func() {
			rem.arrive(inbound{data: payload, imm: wr.Imm, hasImm: wr.Opcode == OpSendImm, srcQPN: qp.QPN})
		})
		if wr.Signaled {
			eng.At(arrive+plat.IBLatency, func() {
				qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusSuccess, Opcode: wr.Opcode, ByteLen: len(payload), QPN: qp.QPN})
			})
		}
		return nil

	case OpRDMAWrite, OpRDMAWriteImm:
		op := h.newWriteOp()
		payload, readRate, srcKind, err := qp.gather(op.payload, wr.SGL)
		if err != nil {
			h.releaseWrite(op)
			return fmt.Errorf("ib: post send: %w", err)
		}
		op.payload = payload
		eng := h.fab.Eng
		// Peek the destination domain for the rate; re-validate keys at
		// arrival so a concurrent dereg still faults.
		writeRate := plat.HCAWriteHost
		dstKind := machine.HostMem
		if _, mr, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, len(payload)); err == nil {
			writeRate = plat.HCAWrite(mr.Dom.Kind)
			dstKind = mr.Dom.Kind
		}
		var wsp *metrics.Span
		if reg := h.fab.Metrics; reg != nil {
			pair := srcKind.String() + "->" + dstKind.String()
			reg.Counter(h.actor, "rdma-write.bytes."+pair).Add(int64(len(payload)))
			wsp = reg.Begin(eng.Now(), h.actor, "wire.rdma-write").
				Attr("pair", pair).AttrInt("bytes", int64(len(payload)))
		}
		rate := qp.capRate(minRate(plat.IBBandwidth, minRate(readRate, writeRate)))
		arrive := h.egress.ReserveRate(len(payload), rate)
		arrive = h.deliverVia(arrive, rem.ctx.HCA, len(payload), rate)
		h.BytesOut += int64(len(payload))
		if fault, delivered := h.fab.Faults.IBWriteFault(); fault {
			// Retry exhaustion: the QP errors when the wire attempt
			// gives up. The payload may or may not have landed first —
			// both halves of that ambiguity must be survivable, which
			// is what the upper layer's sequence-id dedupe is for.
			// This rare path keeps its own payload copy and returns the
			// record at once.
			payload = append([]byte(nil), payload...)
			h.releaseWrite(op)
			eng.At(arrive, func() {
				wsp.End(eng.Now())
				if delivered {
					if dst, _, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, len(payload)); err == nil {
						copy(dst, payload)
						rem.ctx.HCA.Doorbell.Broadcast()
					}
				}
				qp.SetError()
				if wr.Signaled {
					eng.At(eng.Now()+plat.IBLatency, func() {
						qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusRetryExcErr, Opcode: wr.Opcode, QPN: qp.QPN})
					})
				}
			})
			return nil
		}
		op.qp, op.rem = qp, rem
		op.wrid, op.opcode, op.imm, op.signaled = wr.WRID, wr.Opcode, wr.Imm, wr.Signaled
		op.remote = wr.Remote
		op.span = wsp
		eng.At(arrive, op.landFn)
		return nil

	case OpRDMARead:
		total := 0
		for _, sge := range wr.SGL {
			total += sge.Len
		}
		// Validate local scatter list now.
		writeRate := plat.HCAWriteHost
		dstKind := machine.HostMem
		for i, sge := range wr.SGL {
			_, mr, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
			if err != nil {
				return fmt.Errorf("ib: post send (read): %w", err)
			}
			if i == 0 {
				dstKind = mr.Dom.Kind
			}
			if r := plat.HCAWrite(mr.Dom.Kind); r < writeRate {
				writeRate = r
			}
		}
		eng := h.fab.Eng
		var wsp *metrics.Span
		if reg := h.fab.Metrics; reg != nil {
			wsp = reg.Begin(eng.Now(), h.actor, "wire.rdma-read").AttrInt("bytes", int64(total))
		}
		reqArrive := eng.Now() + plat.IBLatency + h.ctrlDelayTo(rem.ctx.HCA)
		if h.fab.Faults.IBReadFault() {
			// A failed read never writes local bytes; the requester's
			// QP errors and the WR completes with retry exhaustion.
			eng.At(reqArrive, func() {
				wsp.End(eng.Now())
				qp.SetError()
				eng.At(eng.Now()+plat.IBLatency, func() {
					qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusRetryExcErr, Opcode: wr.Opcode, QPN: qp.QPN})
				})
			})
			return nil
		}
		eng.At(reqArrive, func() {
			src, mr, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, total)
			if err != nil {
				wsp.End(eng.Now())
				eng.At(eng.Now()+plat.IBLatency, func() {
					qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusRemAccessErr, Opcode: wr.Opcode, QPN: qp.QPN})
					qp.SetError()
				})
				return
			}
			if reg := h.fab.Metrics; reg != nil {
				pair := mr.Dom.Kind.String() + "->" + dstKind.String()
				reg.Counter(h.actor, "rdma-read.bytes."+pair).Add(int64(total))
				wsp.Attr("pair", pair)
			}
			rate := qp.capRate(minRate(plat.IBBandwidth, minRate(plat.HCARead(mr.Dom.Kind), writeRate)))
			// Responder streams the data back over its own egress.
			payload := make([]byte, total)
			copy(payload, src)
			back := rem.ctx.HCA.egress.ReserveRate(total, rate)
			back = rem.ctx.HCA.deliverVia(back, h, total, rate)
			rem.ctx.HCA.BytesOut += int64(total)
			eng.At(back, func() {
				wsp.End(eng.Now())
				remb := payload
				for _, sge := range wr.SGL {
					dst, _, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
					if err != nil {
						qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusLocProtErr, Opcode: wr.Opcode, QPN: qp.QPN})
						qp.SetError()
						return
					}
					n := copy(dst, remb)
					remb = remb[n:]
				}
				h.Doorbell.Broadcast()
				qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusSuccess, Opcode: wr.Opcode, ByteLen: total, QPN: qp.QPN})
			})
		})
		return nil

	case OpAtomicFetchAdd, OpAtomicCmpSwap:
		// Validate the single 8-byte local result SGE.
		if len(wr.SGL) != 1 || wr.SGL[0].Len != 8 {
			return fmt.Errorf("ib: atomic requires one 8-byte local SGE")
		}
		if _, _, err := h.lookupMR(wr.SGL[0].LKey, wr.SGL[0].Addr, 8); err != nil {
			return fmt.Errorf("ib: post atomic: %w", err)
		}
		if wr.Remote.Addr%8 != 0 {
			return fmt.Errorf("ib: atomic target %#x not 8-byte aligned", wr.Remote.Addr)
		}
		eng := h.fab.Eng
		op := wr.Opcode
		reqArrive := h.egress.ReserveRate(8, plat.IBBandwidth)
		reqArrive = h.deliverVia(reqArrive, rem.ctx.HCA, 8, plat.IBBandwidth)
		eng.At(reqArrive, func() {
			target, _, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, 8)
			if err != nil {
				eng.At(eng.Now()+plat.IBLatency, func() {
					qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusRemAccessErr, Opcode: op, QPN: qp.QPN})
					qp.SetError()
				})
				return
			}
			// The responder HCA performs the read-modify-write; the
			// engine's serialized callbacks make it atomic.
			old := binary.LittleEndian.Uint64(target)
			switch op {
			case OpAtomicFetchAdd:
				binary.LittleEndian.PutUint64(target, old+wr.CompareAdd)
			case OpAtomicCmpSwap:
				if old == wr.CompareAdd {
					binary.LittleEndian.PutUint64(target, wr.Swap)
				}
			default:
				// Unreachable: this closure only runs from the atomics arm
				// of the opcode dispatch above, so op is one of the two
				// atomic opcodes.
			}
			rem.ctx.HCA.Doorbell.Broadcast()
			eng.At(eng.Now()+plat.IBLatency+rem.ctx.HCA.ctrlDelayTo(h), func() {
				dst, _, err := h.lookupMR(wr.SGL[0].LKey, wr.SGL[0].Addr, 8)
				if err != nil {
					qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusLocProtErr, Opcode: op, QPN: qp.QPN})
					return
				}
				binary.LittleEndian.PutUint64(dst, old)
				h.Doorbell.Broadcast()
				qp.SendCQ.push(CQE{WRID: wr.WRID, Status: StatusSuccess, Opcode: op, ByteLen: 8, QPN: qp.QPN})
			})
		})
		return nil

	default:
		return fmt.Errorf("ib: unsupported opcode %v", wr.Opcode)
	}
}

// writeOp is one posted RDMA write in flight: the payload gathered at
// post time, the remote QP bound at post time (a later Reset of the
// sender must not redirect it), and the two engine callbacks — the
// landing, then the sender's completion — bound once when the record
// is created, so scheduling them allocates nothing. Records and their
// payload buffers recycle through the posting HCA's free list.
type writeOp struct {
	qp, rem  *QP
	wrid     uint64
	opcode   Opcode
	imm      uint32
	signaled bool
	remote   RemoteAddr
	payload  []byte
	status   Status // StatusSuccess unless the landing faulted
	span     *metrics.Span

	landFn, cqeFn func()
}

// maxPooledPayload caps the payload buffer a recycled writeOp keeps;
// larger (rendezvous-sized) buffers are dropped on release so the free
// list does not pin the largest write ever posted.
const maxPooledPayload = 64 << 10

// newWriteOp takes a record from the free list, or makes one and binds
// its callbacks.
func (h *HCA) newWriteOp() *writeOp {
	if n := len(h.writeFree); n > 0 {
		op := h.writeFree[n-1]
		h.writeFree = h.writeFree[:n-1]
		return op
	}
	op := &writeOp{}
	op.landFn, op.cqeFn = op.land, op.cqe
	return op
}

// releaseWrite returns op to the free list, keeping its payload
// backing unless it exceeds maxPooledPayload.
func (h *HCA) releaseWrite(op *writeOp) {
	buf := op.payload[:0]
	if cap(buf) > maxPooledPayload {
		buf = nil
	}
	*op = writeOp{payload: buf, landFn: op.landFn, cqeFn: op.cqeFn}
	h.writeFree = append(h.writeFree, op)
}

// land runs when the write's last byte reaches the remote HCA: keys are
// re-validated (a dereg since post faults the write and errors the
// QP), the payload is placed, and a WRITE_IMM consumes a receive.
//
//simlint:hot
func (op *writeOp) land() {
	qp, rem := op.qp, op.rem
	op.span.End(qp.ctx.HCA.fab.Eng.Now())
	dst, _, err := rem.ctx.HCA.lookupMR(op.remote.RKey, op.remote.Addr, len(op.payload))
	if err != nil {
		op.status = StatusRemAccessErr
		op.finish()
		qp.SetError()
		return
	}
	copy(dst, op.payload)
	if op.opcode == OpRDMAWriteImm {
		rem.arrive(inbound{imm: op.imm, hasImm: true, srcQPN: qp.QPN})
	}
	rem.ctx.HCA.Doorbell.Broadcast()
	op.finish()
}

// finish schedules a signaled write's completion one wire latency
// after landing, or recycles an unsignaled write's record at once.
func (op *writeOp) finish() {
	h := op.qp.ctx.HCA
	if !op.signaled {
		h.releaseWrite(op)
		return
	}
	h.fab.Eng.At(h.fab.Eng.Now()+h.fab.Plat.IBLatency, op.cqeFn)
}

// cqe pushes a signaled write's completion and recycles the record.
//
//simlint:hot
func (op *writeOp) cqe() {
	e := CQE{WRID: op.wrid, Status: op.status, Opcode: op.opcode, QPN: op.qp.QPN}
	if op.status == StatusSuccess {
		e.ByteLen = len(op.payload)
	}
	op.qp.SendCQ.push(e)
	op.qp.ctx.HCA.releaseWrite(op)
}
