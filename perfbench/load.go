package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/rpc"
)

// loader is the user side of a deployed workload: one process, at
// most max(nproc, gateways) connections, each owned by one worker
// goroutine bound to one gateway shard. A user's requests go through
// the worker of the gateway owning her mailbox.
type loader struct {
	eps     []rpc.Endpoint
	ranges  []core.ShardRange
	workers []*rpc.MultiClient
	gwOf    []int // worker → gateway
}

// newLoader connects to the gateways eps, which own ranges.
func newLoader(eps []rpc.Endpoint, ranges []core.ShardRange) (*loader, error) {
	l := &loader{eps: eps, ranges: ranges}
	for w := 0; w < max(runtime.NumCPU(), len(eps)); w++ {
		g := w % len(eps)
		mc, err := rpc.NewMultiClient(eps[g : g+1])
		if err != nil {
			l.close()
			return nil, err
		}
		l.workers = append(l.workers, mc)
		l.gwOf = append(l.gwOf, g)
		if err := mc.Refresh(); err != nil {
			l.close()
			return nil, fmt.Errorf("gateway %s: %w", eps[g].Addr, err)
		}
	}
	return l, nil
}

func (l *loader) close() {
	for _, w := range l.workers {
		w.Close()
	}
}

// owner returns the gateway owning a mailbox.
func (l *loader) owner(mb []byte) int {
	for g, r := range l.ranges {
		if r.Owns(mb) {
			return g
		}
	}
	return 0
}

// forEach runs op on every item, each through a worker of the item's
// gateway (workers of one gateway share its items in order). It
// returns once every item is done.
func (l *loader) forEach(items []int, gw func(item int) int, op func(w *rpc.MultiClient, item int)) {
	queues := make([][]int, len(l.eps))
	for _, it := range items {
		g := gw(it)
		queues[g] = append(queues[g], it)
	}
	cursors := make([]atomic.Int64, len(l.eps))
	var wg sync.WaitGroup
	for w, mc := range l.workers {
		g := l.gwOf[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursors[g].Add(1)) - 1
				if i >= len(queues[g]) {
					return
				}
				op(mc, queues[g][i])
			}
		}()
	}
	wg.Wait()
}

// register registers the active users' mailboxes plus synthetic
// identifiers up to total, in chunks, and returns the registration
// rate.
func (l *loader) register(users []*client.User, total int, seed int64) (float64, error) {
	const chunk = 50_000
	mbs := make([][]byte, 0, total)
	for _, u := range users {
		mbs = append(mbs, u.Mailbox())
	}
	rng := syntheticRNG(seed)
	for len(mbs) < total {
		mb := make([]byte, 33)
		rng.Read(mb)
		mbs = append(mbs, mb)
	}
	per := make([][][]byte, len(l.eps))
	for _, mb := range mbs {
		g := l.owner(mb)
		per[g] = append(per[g], mb)
	}
	type job struct{ g, lo, hi int }
	var jobs []job
	for g := range per {
		for lo := 0; lo < len(per[g]); lo += chunk {
			jobs = append(jobs, job{g, lo, min(lo+chunk, len(per[g]))})
		}
	}
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	var errMu sync.Mutex
	var firstErr error
	var count atomic.Int64
	t0 := time.Now()
	l.forEach(idx, func(i int) int { return jobs[i].g }, func(w *rpc.MultiClient, i int) {
		j := jobs[i]
		n, err := w.Register(per[j.g][j.lo:j.hi])
		count.Add(int64(n))
		if err != nil {
			errMu.Lock()
			firstErr = err
			errMu.Unlock()
		}
	})
	if firstErr != nil {
		return 0, fmt.Errorf("registering: %w", firstErr)
	}
	if int(count.Load()) != total {
		return 0, fmt.Errorf("registered %d of %d mailboxes", count.Load(), total)
	}
	return float64(total) / time.Since(t0).Seconds(), nil
}

// paramsCache snapshots every chain's parameters for a round and the
// next, so building 10k users does not cost 10k parameter fetches.
type paramsCache struct {
	round     uint64
	cur, next []mix.Params
}

func newParamsCache(src *rpc.MultiClient, round uint64, chains int) (*paramsCache, error) {
	pc := &paramsCache{round: round, cur: make([]mix.Params, chains), next: make([]mix.Params, chains)}
	for c := 0; c < chains; c++ {
		var err error
		if pc.cur[c], err = src.ChainParams(c, round); err != nil {
			return nil, err
		}
		if pc.next[c], err = src.ChainParams(c, round+1); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

func (p *paramsCache) ChainParams(chain int, round uint64) (mix.Params, error) {
	if chain < 0 || chain >= len(p.cur) {
		return mix.Params{}, fmt.Errorf("chain %d out of range", chain)
	}
	switch round {
	case p.round:
		return p.cur[chain], nil
	case p.round + 1:
		return p.next[chain], nil
	}
	return mix.Params{}, fmt.Errorf("parameters for round %d not cached", round)
}

// openLoop is the result of one open-loop submission phase.
type openLoop struct {
	// latency runs from each submission's scheduled send time to its
	// acknowledgement; service from the actual send.
	latency, service samples
	lagMax           time.Duration
	errors           int
}

// submitOpenLoop sends items[i] at start + i/rate through send, with
// the worker set of l; send reports the item's error. Latency is
// timed from the scheduled time, so a stalled generator or server
// shows as latency, and lagMax reports how late the generator ran.
func submitOpenLoop(l *loader, items []int, gw func(int) int, rate float64, send func(w *rpc.MultiClient, item int) error) openLoop {
	sched := make(map[int]time.Duration, len(items))
	for i, it := range items {
		sched[it] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	lat := make([]float64, len(items))
	svc := make([]float64, len(items))
	pos := make(map[int]int, len(items))
	for i, it := range items {
		pos[it] = i
	}
	var mu sync.Mutex
	var res openLoop
	start := time.Now()
	l.forEach(items, gw, func(w *rpc.MultiClient, it int) {
		due := start.Add(sched[it])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		err := send(w, it)
		t1 := time.Now()
		mu.Lock()
		if lag := t0.Sub(due); lag > res.lagMax {
			res.lagMax = lag
		}
		if err != nil {
			res.errors++
		}
		mu.Unlock()
		lat[pos[it]] = ms(t1.Sub(due))
		svc[pos[it]] = ms(t1.Sub(t0))
	})
	res.latency, res.service = lat, svc
	return res
}
