package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// The traced run wraps every gateway shard (core.GatewayShard) and
// every chain position (mix.Hop) the coordinator calls with a timing
// decorator, and every hop connection with a byte and wait meter
// (rpc.HopClient.SetConnWrapper). Each call is recorded as a span;
// after a round, attribute folds the spans into the round's named
// parts.

// span is one timed call into a layer.
type span struct {
	kind       string // "announce", "build", "mix", "finish"
	chain, pos int
	start, end time.Time
	// envelopes is the batch size of a mix call.
	envelopes int
	// remote and bytes are a remote mix call's wire wait (last
	// request byte written → first response byte read) and traffic.
	remote time.Duration
	bytes  int64
}

// tracer collects spans while enabled and keeps samples of the data
// that flowed through the decorators for the kernel replays.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// Captured round data (the latest traced round's).
	batch      []onion.Submission // one chain's submitted batch
	batchRound uint64
	batchChain int
	params     mix.Params       // that chain's parameters
	envelopes  []onion.Envelope // one hop's input
	delivered  [][]byte         // one shard's routed deliveries
}

// captureMax bounds the captured samples.
const captureMax = 4096

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// timedShard decorates a gateway shard. fault, when set, tampers with
// the round's deliveries before they reach the shard (tests).
type timedShard struct {
	core.GatewayShard
	tr    *tracer
	fault *deliveryFault
}

func (s *timedShard) BeginRound(br *core.BeginRound) (*core.ShardBuild, error) {
	t0 := time.Now()
	b, err := s.GatewayShard.BeginRound(br)
	s.tr.record(span{kind: "build", start: t0, end: time.Now()})
	if err == nil && s.tr.on.Load() {
		s.tr.mu.Lock()
		for c, cb := range b.Batches {
			if len(cb.Subs) > len(s.tr.batch) {
				n := min(len(cb.Subs), captureMax)
				s.tr.batch = append(s.tr.batch[:0], cb.Subs[:n]...)
				s.tr.batchRound, s.tr.batchChain = br.Round, c
				if c < len(br.Cur) {
					s.tr.params = br.Cur[c]
				}
			}
		}
		s.tr.mu.Unlock()
	}
	return b, err
}

func (s *timedShard) FinishRound(fr *core.FinishRound) (core.FinishStats, error) {
	if s.fault != nil {
		s.fault.apply(fr)
	}
	if s.tr.on.Load() && len(fr.Delivered) > 0 {
		s.tr.mu.Lock()
		n := min(len(fr.Delivered), captureMax)
		s.tr.delivered = append(s.tr.delivered[:0], fr.Delivered[:n]...)
		s.tr.mu.Unlock()
	}
	t0 := time.Now()
	st, err := s.GatewayShard.FinishRound(fr)
	s.tr.record(span{kind: "finish", start: t0, end: time.Now()})
	return st, err
}

// timedHop decorates one chain position. wire is the position's
// connection meter.
type timedHop struct {
	mix.Hop
	tr         *tracer
	chain, pos int
	wire       *wireMeter
}

func (h *timedHop) BeginRound(round uint64) (group.Point, nizk.Proof, error) {
	t0 := time.Now()
	p, pr, err := h.Hop.BeginRound(round)
	h.tr.record(span{kind: "announce", chain: h.chain, pos: h.pos, start: t0, end: time.Now()})
	return p, pr, err
}

func (h *timedHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	if h.tr.on.Load() && h.pos == 0 {
		h.tr.mu.Lock()
		if len(in) > len(h.tr.envelopes) {
			h.tr.envelopes = append(h.tr.envelopes[:0], in[:min(len(in), captureMax)]...)
		}
		h.tr.mu.Unlock()
	}
	r0, b0 := h.wire.remote.Load(), h.wire.bytes.Load()
	t0 := time.Now()
	res, err := h.Hop.Mix(round, nonce, in)
	h.tr.record(span{kind: "mix", chain: h.chain, pos: h.pos, start: t0, end: time.Now(), envelopes: len(in),
		remote: time.Duration(h.wire.remote.Load() - r0), bytes: h.wire.bytes.Load() - b0})
	return res, err
}

// wireMeter accumulates, over every connection of one hop client, the
// bytes moved and the time spent waiting between the last byte of a
// request and the first byte of its response.
type wireMeter struct {
	remote atomic.Int64 // nanoseconds
	bytes  atomic.Int64
}

func (m *wireMeter) wrap(c net.Conn) net.Conn { return &meteredConn{Conn: c, m: m} }

// meteredConn is used by one goroutine at a time: the hop protocol is
// strictly alternating per connection.
type meteredConn struct {
	net.Conn
	m         *wireMeter
	lastWrite time.Time
	awaiting  bool
}

func (c *meteredConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.m.bytes.Add(int64(n))
	c.lastWrite, c.awaiting = time.Now(), true
	return n, err
}

func (c *meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.awaiting && n > 0 {
		c.m.remote.Add(int64(time.Since(c.lastWrite)))
		c.awaiting = false
	}
	c.m.bytes.Add(int64(n))
	return n, err
}

// roundParts is one traced round's wall time split into named,
// non-overlapping parts; self is what no named part covers.
type roundParts struct {
	round, announce, build, finish, self time.Duration
	verify, hop, between, reveal         time.Duration
	// On the critical chain: envelopes entering it, positions mixed,
	// and the remote wait and bytes of its mix calls.
	envelopes, positions int
	remote               time.Duration
	bytes                int64
}

// Part priorities: an instant covered by several parts is charged to
// the first in this order.
const (
	pFinish = iota
	pBuild
	pAnnounce
	pHop
	pBetween
	pVerify
	pReveal
	nParts
)

type interval struct {
	part       int
	start, end time.Time
}

// attribute splits the round [t0, t1] into parts from its spans:
//
//   - build: gateway shards' BeginRound; finish: their FinishRound;
//     announce: hops' BeginRound (key announcement).
//   - On the critical chain (the one whose last mix ends latest):
//     verify runs from build end to its first mix, hop covers its mix
//     calls, between the gaps between consecutive mix calls (shuffle
//     certificate checks, lineage bookkeeping), reveal from its last
//     mix to the first FinishRound (inner-key reveal, inner decrypt).
//
// Every instant of the round is charged to at most one part (by the
// priority order above); self is the remainder, so the parts sum to
// the round exactly.
func attribute(t0, t1 time.Time, spans []span) roundParts {
	p := roundParts{round: t1.Sub(t0)}
	var ivs []interval
	var buildEnd, finishStart time.Time
	mixes := make(map[int][]span)
	for _, s := range spans {
		switch s.kind {
		case "build":
			ivs = append(ivs, interval{pBuild, s.start, s.end})
			if s.end.After(buildEnd) {
				buildEnd = s.end
			}
		case "finish":
			ivs = append(ivs, interval{pFinish, s.start, s.end})
			if finishStart.IsZero() || s.start.Before(finishStart) {
				finishStart = s.start
			}
		case "announce":
			ivs = append(ivs, interval{pAnnounce, s.start, s.end})
		case "mix":
			mixes[s.chain] = append(mixes[s.chain], s)
		}
	}
	critical, lastEnd := -1, time.Time{}
	for c, ms := range mixes {
		sort.Slice(ms, func(i, j int) bool { return ms[i].start.Before(ms[j].start) })
		end := ms[len(ms)-1].end
		if critical < 0 || end.After(lastEnd) || (end.Equal(lastEnd) && c < critical) {
			critical, lastEnd = c, end
		}
	}
	if critical >= 0 {
		ms := mixes[critical]
		p.envelopes, p.positions = ms[0].envelopes, len(ms)
		if !buildEnd.IsZero() {
			ivs = append(ivs, interval{pVerify, buildEnd, ms[0].start})
		}
		for i, s := range ms {
			ivs = append(ivs, interval{pHop, s.start, s.end})
			p.remote += s.remote
			p.bytes += s.bytes
			if i > 0 {
				ivs = append(ivs, interval{pBetween, ms[i-1].end, s.start})
			}
		}
		if !finishStart.IsZero() {
			ivs = append(ivs, interval{pReveal, lastEnd, finishStart})
		}
	}
	var charged [nParts]time.Duration
	sweep(t0, t1, ivs, charged[:])
	p.finish, p.build, p.announce = charged[pFinish], charged[pBuild], charged[pAnnounce]
	p.hop, p.between, p.verify, p.reveal = charged[pHop], charged[pBetween], charged[pVerify], charged[pReveal]
	var named time.Duration
	for _, d := range charged {
		named += d
	}
	p.self = p.round - named
	return p
}

// sweep charges every elementary segment of [t0, t1] to the
// highest-priority interval covering it.
func sweep(t0, t1 time.Time, ivs []interval, charged []time.Duration) {
	cuts := []time.Time{t0, t1}
	clip := func(t time.Time) time.Time {
		if t.Before(t0) {
			return t0
		}
		if t.After(t1) {
			return t1
		}
		return t
	}
	for i := range ivs {
		ivs[i].start, ivs[i].end = clip(ivs[i].start), clip(ivs[i].end)
		cuts = append(cuts, ivs[i].start, ivs[i].end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if !b.After(a) {
			continue
		}
		best := -1
		for _, iv := range ivs {
			if !iv.start.After(a) && !iv.end.Before(b) && (best < 0 || iv.part < best) {
				best = iv.part
			}
		}
		if best >= 0 {
			charged[best] += b.Sub(a)
		}
	}
}

// deliveryFault tampers with one round's deliveries, to prove the
// delivery check catches it: withhold drops a message, surplus
// duplicates one.
type deliveryFault struct {
	withhold, surplus bool
	done              atomic.Bool
}

func (f *deliveryFault) apply(fr *core.FinishRound) {
	if len(fr.Delivered) == 0 || f.done.Swap(true) {
		return
	}
	switch {
	case f.withhold:
		fr.Delivered = fr.Delivered[1:]
	case f.surplus:
		fr.Delivered = append(fr.Delivered, fr.Delivered[0])
	}
}
