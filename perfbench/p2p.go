package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// p2pSizes is the message-size multiset of one p2p-phi round: 8 B to
// 2 MiB, straddling the 8 KiB eager/offload threshold. Every round
// sends each size exactly once, so every seed moves the same bytes.
var p2pSizes = []int{8, 64, 512, 2048, 4096, 8184, 8192, 8200, 16384, 32768, 65536, 131072, 262144, 524288, 1 << 20, 2 << 20}

// p2pAnyPct is the share of receives posted with ANY_SOURCE, percent.
const p2pAnyPct = 25

// p2pBigSize is the smallest size class whose receive pool is bigPool.
const p2pBigSize = 128 << 10

// p2pSendSlots is the send buffers per size class per rank. Each is
// filled once with its own stretch of the pattern, so no send copies
// its payload in; a message picks a buffer whose bytes differ from
// what its receive buffer holds.
const p2pSendSlots = 4

// p2pCfg is the p2p-phi workload: Phi ranks over DCFA with the offload
// send buffer on, exchanging seeded rounds of Isend/Irecv.
type p2pCfg struct {
	ranks  int
	rounds int
	// pool and bigPool are the receive buffers per size class per rank,
	// below and from p2pBigSize up. The rendezvous classes' buffers must
	// outnumber the 64-entry MR cache so that hits, misses and
	// evictions all occur.
	pool, bigPool int
}

// slots is the receive-buffer count of size class cls.
func (c p2pCfg) slots(cls int) int {
	if p2pSizes[cls] >= p2pBigSize {
		return c.bigPool
	}
	return c.pool
}

// p2pMsg is one generated message.
type p2pMsg struct {
	src, dst, tag int
	cls           int // index into p2pSizes
	slot          int // receiver's buffer within the size class
	sslot         int // sender's buffer within the size class
	off           int // payload offset into the pattern
	any           bool
}

type p2pRun struct {
	cfg     p2pCfg
	c       *cluster.Cluster
	w       *core.World
	pattern []byte
	// msgs[round*len(p2pSizes)+j] is message j of a round; in and out
	// list, per rank and round, the messages it receives and sends.
	msgs    []p2pMsg
	in, out [][][]int
	// sendOff[rank*len(p2pSizes)+cls][sslot] is the pattern offset that
	// send buffer holds.
	sendOff [][]int
	// tpost/tdone are each message's Isend post and receiver Wait
	// return times; ok marks the payload and status checks passing.
	tpost, tdone []sim.Time
	ok           []bool
	// rreq holds each message's posted receive until its Wait.
	rreq []*core.Request
	errs []error
	// flip, when >= 0, is a message whose first payload byte the
	// sender corrupts while it is in flight (self-tests of the check).
	flip int
}

func p2pWorkload(cfg p2pCfg) workload {
	return workload{
		name: "p2p-phi",
		build: func(seed uint64, o *observer) (instance, error) {
			return buildP2P(cfg, seed, o)
		},
	}
}

// p2pPatternSlack is the range of payload offsets into the pattern.
const p2pPatternSlack = 4096

func buildP2P(cfg p2pCfg, seed uint64, o *observer) (*p2pRun, error) {
	plat := perfmodel.Default()
	a := &p2pRun{cfg: cfg, flip: -1}
	_ = o.timed("setup.cluster", func() error {
		a.c = cluster.New(plat, cfg.ranks)
		a.c.SetMetrics(o.reg)
		a.c.SetCausal(o.rec)
		return nil
	})
	_ = o.timed("setup.world", func() error {
		a.w = a.c.DCFAWorld(cfg.ranks, true)
		return nil
	})
	_ = o.timed("setup.inputs", func() error {
		a.generate(seed)
		return nil
	})
	return a, nil
}

// generate draws the rounds. A message goes from a random buffer of the
// sender's pool to a random buffer of the receiver's, and its payload
// offset differs from the one that receive buffer held last, so stale
// bytes can never pass the check.
func (a *p2pRun) generate(seed uint64) {
	cfg := a.cfg
	g := newRNG(seed, 3)
	a.pattern = make([]byte, p2pSizes[len(p2pSizes)-1]+p2pPatternSlack)
	for i := 0; i+8 <= len(a.pattern); i += 8 {
		v := g.next()
		for b := 0; b < 8; b++ {
			a.pattern[i+b] = byte(v >> (8 * b))
		}
	}
	per := len(p2pSizes)
	a.msgs = make([]p2pMsg, cfg.rounds*per)
	a.in = make([][][]int, cfg.ranks)
	a.out = make([][][]int, cfg.ranks)
	for r := 0; r < cfg.ranks; r++ {
		a.in[r] = make([][]int, cfg.rounds)
		a.out[r] = make([][]int, cfg.rounds)
	}
	a.sendOff = make([][]int, cfg.ranks*per)
	lastOff := make([][]int, cfg.ranks*per)
	for i := range lastOff {
		for len(a.sendOff[i]) < p2pSendSlots {
			if off := g.intn(p2pPatternSlack); !slices.Contains(a.sendOff[i], off) {
				a.sendOff[i] = append(a.sendOff[i], off)
			}
		}
		lastOff[i] = make([]int, cfg.slots(i%per))
		for s := range lastOff[i] {
			lastOff[i][s] = -1
		}
	}
	// Every round sends each size once, gives every rank the same
	// number of sends and receives (as near as the rank count allows)
	// and has p2pAnyPct of its receives ANY_SOURCE, so every seed carries
	// the same load; the seed decides who sends what to whom, which
	// receives are ANY_SOURCE, into which buffer, and from where in the
	// pattern.
	nAny := per * p2pAnyPct / 100
	for round := 0; round < cfg.rounds; round++ {
		srcs, dsts := g.perm(per), g.perm(per)
		for invalid := true; invalid; {
			invalid = false
			for j := range srcs {
				invalid = invalid || srcs[j]%cfg.ranks == dsts[j]%cfg.ranks
			}
			if invalid {
				dsts = g.perm(per)
			}
		}
		anys := g.perm(per)
		for j, cls := range g.perm(per) {
			m := p2pMsg{src: srcs[j] % cfg.ranks, dst: dsts[j] % cfg.ranks, tag: round*per + j, cls: cls, any: anys[j] < nAny}
			m.slot = g.intn(cfg.slots(cls))
			offs := a.sendOff[m.src*per+cls]
			last := &lastOff[m.dst*per+cls][m.slot]
			for m.sslot = g.intn(p2pSendSlots); offs[m.sslot] == *last; m.sslot = g.intn(p2pSendSlots) {
			}
			m.off = offs[m.sslot]
			*last = m.off
			i := round*per + j
			a.msgs[i] = m
			a.in[m.dst][round] = append(a.in[m.dst][round], i)
			a.out[m.src][round] = append(a.out[m.src][round], i)
		}
	}
	a.tpost = make([]sim.Time, len(a.msgs))
	a.tdone = make([]sim.Time, len(a.msgs))
	a.ok = make([]bool, len(a.msgs))
	a.rreq = make([]*core.Request, len(a.msgs))
	a.errs = make([]error, cfg.ranks)
}

func (a *p2pRun) run(o *observer) error {
	return o.timed("run", func() error { return a.w.Run(a.body) })
}

// payload is message m's expected bytes.
func (a *p2pRun) payload(m *p2pMsg) []byte {
	return a.pattern[m.off : m.off+p2pSizes[m.cls]]
}

// body is one rank: it allocates and fills its send pool, allocates
// its receive pool, then runs the rounds.
func (a *p2pRun) body(r *core.Rank) error {
	per := len(p2pSizes)
	sbuf := make([][]*machine.Buffer, per)
	rbuf := make([][]*machine.Buffer, per)
	for cls, n := range p2pSizes {
		sbuf[cls] = make([]*machine.Buffer, p2pSendSlots)
		for s, off := range a.sendOff[r.ID()*per+cls] {
			sbuf[cls][s] = r.Mem(n)
			copy(sbuf[cls][s].Data, a.pattern[off:off+n])
		}
		rbuf[cls] = make([]*machine.Buffer, a.cfg.slots(cls))
		for s := range rbuf[cls] {
			rbuf[cls][s] = r.Mem(n)
		}
	}
	for round := 0; round < a.cfg.rounds; round++ {
		if err := a.round(r, round, sbuf, rbuf); err != nil {
			a.errs[r.ID()] = err
			return err
		}
	}
	return nil
}

// round is one round of one rank: it posts its receives, then its
// sends, waits for each receive in post order and checks every byte,
// then waits for its sends. Every posted request is completed even
// when another fails, and the errors are returned together.
func (a *p2pRun) round(r *core.Rank, round int, sbuf, rbuf [][]*machine.Buffer) error {
	p := r.Proc()
	id := r.ID()
	in := a.in[id][round]
	for k, i := range in {
		m := &a.msgs[i]
		src := m.src
		if m.any {
			src = core.AnySource
		}
		q, err := r.Irecv(p, src, m.tag, core.Whole(rbuf[m.cls][m.slot]))
		if err != nil {
			return errors.Join(err, a.waitRecvs(r, in[:k], rbuf))
		}
		a.rreq[i] = q
	}
	var sends []*core.Request
	var sendErr error
	var flipped []byte
	for _, i := range a.out[id][round] {
		m := &a.msgs[i]
		buf := sbuf[m.cls][m.sslot]
		if i == a.flip {
			flipped = buf.Data
			flipped[0] ^= 0xff
		}
		a.tpost[i] = p.Now()
		q, err := r.Isend(p, m.dst, m.tag, core.Whole(buf))
		if err != nil {
			sendErr = err
			break
		}
		sends = append(sends, q)
	}
	err := errors.Join(sendErr, a.waitRecvs(r, in, rbuf), r.WaitAll(p, sends...))
	if flipped != nil {
		flipped[0] ^= 0xff // the buffer serves later messages
	}
	return err
}

// waitRecvs waits for the posted receives of messages in, in order,
// recording when each Wait returned and whether the receiver saw the
// right source, length and every payload byte.
func (a *p2pRun) waitRecvs(r *core.Rank, in []int, rbuf [][]*machine.Buffer) error {
	p := r.Proc()
	var errs []error
	for _, i := range in {
		st, err := r.Wait(p, a.rreq[i])
		a.rreq[i] = nil
		if err != nil {
			errs = append(errs, err)
			continue
		}
		m := &a.msgs[i]
		a.tdone[i] = p.Now()
		a.ok[i] = st.Source == m.src && st.Len == p2pSizes[m.cls] &&
			bytes.Equal(rbuf[m.cls][m.slot].Data, a.payload(m))
	}
	return errors.Join(errs...)
}

// check counts a message as failed unless its receiver saw the right
// source, length and every payload byte.
func (a *p2pRun) check(o *observer) outcome {
	var out outcome
	_ = o.timed("verify", func() error {
		out = outcome{
			attempted:   len(a.msgs),
			fingerprint: a.c.Eng.Fingerprint(),
			simNS:       int64(a.c.Eng.Now()),
			events:      a.c.Eng.EventsRun(),
			opsUS:       make([]float64, 0, len(a.msgs)),
			layer:       map[string]float64{},
		}
		for id, err := range a.errs {
			if err != nil && len(out.problems) < 8 {
				out.problems = append(out.problems, fmt.Sprintf("rank %d: %v", id, err))
			}
		}
		for i := range a.msgs {
			m := &a.msgs[i]
			if !a.ok[i] {
				out.fail("message %d (%d -> %d, %d B, any=%v) failed its check", i, m.src, m.dst, p2pSizes[m.cls], m.any)
				continue
			}
			out.opsUS = append(out.opsUS, (a.tdone[i] - a.tpost[i]).Micros())
		}
		return nil
	})
	return out
}
