package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/rpc"
)

// runDeployed runs deployed-10k or durable-1m, traced or not.
func runDeployed(s spec, o options) (*collector, *tracer, error) {
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	setupStart := time.Now()
	cl, err := launch(o.serverBin, o.dir, s.durable, tr, o.faults)
	if err != nil {
		return nil, nil, err
	}
	defer cl.close()
	ld, err := newLoader(cl.eps, shardRanges)
	if err != nil {
		return nil, nil, err
	}
	defer ld.close()
	st, err := ld.workers[0].Status()
	if err != nil {
		return nil, nil, err
	}
	plan, err := chainsel.NewPlan(st.NumChains)
	if err != nil {
		return nil, nil, err
	}
	users := newUsers(s.active, func() *client.User { return client.NewUser(nil, plan) })
	pop, err := newPopulation(users, o.seed)
	if err != nil {
		return nil, nil, err
	}
	col := newCollector()
	if col.registerRate, err = ld.register(users, s.registered, o.seed); err != nil {
		return nil, nil, err
	}
	o.logf("registered %d users (%.0f/s)", s.registered, col.registerRate)
	d := &deployedRun{s: s, o: o, cl: cl, ld: ld, pop: pop, col: col, tr: tr, chains: st.NumChains}
	if err := timedLoop(o, setupStart, col, d.cycle); err != nil {
		return nil, nil, err
	}
	for _, sv := range cl.servers() {
		v, err := peakRSSMiB(sv.pid())
		if err != nil {
			return nil, nil, err
		}
		col.peakRSS += v
		col.roleRSS[sv.role] += v
	}
	return col, tr, nil
}

// deployedRun is the state one deployed run carries across cycles.
type deployedRun struct {
	s      spec
	o      options
	cl     *cluster
	ld     *loader
	pop    *population
	col    *collector
	tr     *tracer
	chains int
}

// roleCPU sums the CPU seconds of every server process per role.
func (d *deployedRun) roleCPU() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, sv := range d.cl.servers() {
		v, err := cpuSeconds(sv.pid())
		if err != nil {
			return nil, err
		}
		out[sv.role] += v
	}
	return out, nil
}

// cycle runs one round end to end: plan it, build and submit every
// online user's onions open-loop, trigger the round, then fetch, open
// and check every online receiver's mailbox.
func (d *deployedRun) cycle(idx int) error {
	users, pop, col := d.pop.users, d.pop, d.col
	record := idx > 0
	st, err := d.ld.workers[0].Status()
	if err != nil {
		return err
	}
	round := st.Round
	offline := 0.0
	if idx > 0 {
		offline = d.s.offline
	}
	rp, err := pop.plan(round, idx, offline)
	if err != nil {
		return err
	}
	var online []int
	for i, on := range rp.online {
		if on {
			online = append(online, i)
		}
	}
	cache, err := newParamsCache(d.ld.workers[0], round, d.chains)
	if err != nil {
		return err
	}
	cpu0, err := d.roleCPU()
	if err != nil {
		return err
	}
	self0 := selfCPU()

	// Each client phase starts from a collected heap, so the load
	// generator's own collector does not land at a different point of
	// the phase in every run.
	runtime.GC()

	// Build every online user's onions.
	c0 := time.Now()
	outs := make([]*client.RoundOutput, len(users))
	buildMs, err := buildAll(online, func(u int) (err error) {
		outs[u], err = users[u].BuildRound(round, cache)
		return err
	})
	if err != nil {
		return fmt.Errorf("building round %d: %w", round, err)
	}

	// Submit open-loop at the workload's rate.
	gw := func(u int) int { return d.ld.owner(users[u].Mailbox()) }
	runtime.GC()
	s0 := time.Now()
	ol := submitOpenLoop(d.ld, online, gw, d.s.rate, func(w *rpc.MultiClient, u int) error {
		return w.Submit(users[u].Mailbox(), outs[u])
	})
	subRate := float64(len(online)) / time.Since(s0).Seconds()
	self1 := selfCPU()

	// The round.
	if d.tr != nil {
		d.tr.on.Store(true)
	}
	t0 := time.Now()
	delivered, covered, err := d.cl.runRound()
	t1 := time.Now()
	var spans []span
	if d.tr != nil {
		d.tr.on.Store(false)
		spans = d.tr.take()
	}
	if err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	self2 := selfCPU()
	runtime.GC()

	// Fetch, open and check every online receiver's mailbox, one
	// receiver at a time (each on her own device): concurrent fetches
	// would time how the benchmark's own goroutines share the cores.
	var fetchMs, fetchSvc, openMs samples
	failed := ol.errors + abs(delivered-rp.total) + abs(covered-rp.covered)
	for _, u := range online {
		w := d.ld.workers[gw(u)] // workers[g] serves gateway g
		mb := users[u].Mailbox()
		f0 := time.Now()
		msgs, err := w.Fetch(round, mb)
		f1 := time.Now()
		if err != nil {
			failed += len(rp.expect[u]) + 1
			continue
		}
		recv, bad := users[u].OpenMailbox(round, msgs)
		f2 := time.Now()
		if d.s.durable {
			if _, err := w.Ack(round, mb); err != nil {
				bad++
			}
		}
		missing, surplus := pop.check(rp, u, recv)
		failed += missing + surplus + bad
		fetchMs = append(fetchMs, ms(f2.Sub(f0)))
		fetchSvc = append(fetchSvc, ms(f1.Sub(f0)))
		openMs = append(openMs, ms(f2.Sub(f1)))
	}
	self3 := selfCPU()
	c1 := time.Now()
	cpu1, err := d.roleCPU()
	if err != nil {
		return err
	}
	col.tally(len(online)+rp.total, failed)
	d.o.logf("cycle %d (%.1fs: build %.1fs, submit %.1fs, round, fetch %.1fs): round %d in %.3fs, %d delivered (expected %d, %d covered), %d failed, build p50 %.3fms, submitted %.0f/s, p50 %.1fms, lag max %.1fms",
		idx, c1.Sub(c0).Seconds(), s0.Sub(c0).Seconds(), t0.Sub(s0).Seconds(), c1.Sub(t1).Seconds(),
		round, t1.Sub(t0).Seconds(), delivered, rp.total, covered, failed, buildMs.median(), subRate, ol.latency.median(), ms(ol.lagMax))
	if !record {
		return nil
	}
	roundS := t1.Sub(t0).Seconds()
	if d.tr != nil {
		col.traced = append(col.traced, roundS)
		col.parts = append(col.parts, attribute(t0, t1, spans))
	} else {
		col.round = append(col.round, roundS)
		col.msgsPerS = append(col.msgsPerS, float64(delivered)/roundS)
	}
	total := 0.0
	for _, role := range roles {
		v := cpu1[role] - cpu0[role]
		total += v
		col.roleCPU[role] = append(col.roleCPU[role], v)
	}
	col.cpuRound = append(col.cpuRound, total)
	col.loadCPU = append(col.loadCPU, (self1-self0)+(self3-self2))
	col.submitP99 = append(col.submitP99, ol.latency.windowP99()...)
	col.fetchP99 = append(col.fetchP99, fetchMs.windowP99()...)
	col.submitLat = append(col.submitLat, ol.latency...)
	col.submitSvc = append(col.submitSvc, ol.service...)
	col.lagMax = max(col.lagMax, ol.lagMax)
	col.fetch = append(col.fetch, fetchMs...)
	col.fetchSvc = append(col.fetchSvc, fetchSvc...)
	col.open = append(col.open, openMs...)
	col.build = append(col.build, buildMs...)
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
