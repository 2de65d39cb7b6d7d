package main

import (
	"os"
	"time"
)

// collector accumulates one run's samples across its timed rounds.
type collector struct {
	attempted, failed int

	setup    time.Duration
	round    samples // untraced rounds, seconds
	traced   samples // traced rounds, seconds
	msgsPerS samples
	cpuRound samples // all server processes' CPU per round

	submitLat, submitSvc samples // ms
	fetch, fetchSvc      samples // ms: fetch+open, fetch alone
	// 99th percentiles per window of samples (see windowP99).
	submitP99, fetchP99 samples
	open, build         samples // ms
	lagMax              time.Duration
	loadCPU             samples // generator CPU per round

	roleCPU      map[string]samples // per round
	roleRSS      map[string]float64 // MiB, peak
	peakRSS      float64            // MiB, all server processes
	registerRate float64
	parts        []roundParts
	kernels      []metric
}

func newCollector() *collector {
	return &collector{roleCPU: make(map[string]samples), roleRSS: make(map[string]float64)}
}

// tally records failed operations out of attempted ones.
func (c *collector) tally(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// roles lists the per-role metric suffixes.
var roles = []string{"coordinator", "gateway", "mix"}

// endToEnd reports the untraced metrics.
func (c *collector) endToEnd() *result {
	r := &result{attempted: c.attempted, failed: c.failed}
	r.add("setup_s", secs(c.setup), "s", 1)
	r.add("round_s", c.round.median(), "s", len(c.round))
	r.add("msgs_per_s", c.msgsPerS.median(), "msg/s", len(c.msgsPerS))
	// The 99th percentiles vary between runs far more than any bound
	// a regression gate could use (CPU scheduling delay on a shared
	// host sets them), so they are reported beside the result, not in
	// it. So are fetch_ms_p50 and client_build_ms: each is one
	// receiver's or one user's work on one core, timed within a few
	// seconds of a run, and moves with the host's single-core speed
	// from run to run by about as much as the largest bound. The
	// traced run carries their parts (rpc.fetch_ms_p50, client.open_ms,
	// client.build_ms).
	r.add("submit_ms_p50", c.submitLat.median(), "ms", len(c.submitLat))
	r.note("submit_ms_p99", c.submitP99.median(), "ms", len(c.submitLat))
	r.note("fetch_ms_p50", c.fetch.median(), "ms", len(c.fetch))
	r.note("fetch_ms_p99", c.fetchP99.median(), "ms", len(c.fetch))
	r.note("client_build_ms", c.build.median(), "ms", len(c.build))
	r.add("cpu_s_per_round", c.cpuRound.median(), "CPU-s", len(c.cpuRound))
	r.add("peak_rss_mb", c.peakRSS, "MiB", 1)
	return r
}

// perLayer reports the traced metrics. The proc.* figures and
// trace.round_s_untraced come from the untraced deployment that runs
// first (see run); every other figure from the traced one.
func (c *collector) perLayer() *result {
	r := &result{attempted: c.attempted, failed: c.failed}
	med := func(f func(p roundParts) float64) float64 {
		var s samples
		for _, p := range c.parts {
			s = append(s, f(p))
		}
		return s.median()
	}
	n := len(c.parts)
	sec := func(name string, f func(p roundParts) time.Duration) {
		r.add(name, med(func(p roundParts) float64 { return secs(f(p)) }), "s", n)
	}
	sec("core.announce_s", func(p roundParts) time.Duration { return p.announce })
	sec("core.build_s", func(p roundParts) time.Duration { return p.build })
	sec("core.finish_s", func(p roundParts) time.Duration { return p.finish })
	sec("core.self_s", func(p roundParts) time.Duration { return p.self })
	sec("mix.verify_s", func(p roundParts) time.Duration { return p.verify })
	sec("mix.hop_s", func(p roundParts) time.Duration { return p.hop })
	r.add("mix.hop_us_per_msg", med(func(p roundParts) float64 {
		return perMsg(float64(p.hop)/float64(time.Microsecond), p)
	}), "us", n)
	sec("mix.between_hops_s", func(p roundParts) time.Duration { return p.between })
	sec("mix.reveal_s", func(p roundParts) time.Duration { return p.reveal })
	sec("rpc.hop_remote_s", func(p roundParts) time.Duration { return p.remote })
	sec("rpc.hop_codec_s", func(p roundParts) time.Duration { return p.hop - p.remote })
	r.add("rpc.hop_bytes_per_msg", med(func(p roundParts) float64 { return perMsg(float64(p.bytes), p) }), "B", n)
	r.add("rpc.submit_ms_p50", c.submitSvc.median(), "ms", len(c.submitSvc))
	r.add("rpc.fetch_ms_p50", c.fetchSvc.median(), "ms", len(c.fetchSvc))
	r.add("rpc.register_per_s", c.registerRate, "1/s", 1)
	r.add("client.open_ms", c.open.median(), "ms", len(c.open))
	r.add("client.build_ms", c.build.median(), "ms", len(c.build))
	r.metrics = append(r.metrics, c.kernels...)
	for _, role := range roles {
		s := c.roleCPU[role]
		r.add("proc.cpu_s."+role, s.median(), "CPU-s", len(s))
	}
	for _, role := range roles {
		r.add("proc.rss_mb."+role, c.roleRSS[role], "MiB", 1)
	}
	r.add("load.lag_ms_max", ms(c.lagMax), "ms", len(c.submitLat))
	r.add("load.cpu_s", c.loadCPU.median(), "CPU-s", len(c.loadCPU))
	r.add("trace.round_s", c.traced.median(), "s", len(c.traced))
	r.add("trace.round_s_untraced", c.round.median(), "s", len(c.round))
	return r
}

// perMsg divides by the critical chain's envelopes × positions.
func perMsg(v float64, p roundParts) float64 {
	if p.envelopes == 0 || p.positions == 0 {
		return 0
	}
	return v / float64(p.envelopes*p.positions)
}

// selfCPU is this process's CPU seconds so far.
func selfCPU() float64 {
	v, _ := cpuSeconds(os.Getpid())
	return v
}

// timedLoop runs the warm-up cycle (index 0, counted in set-up) and
// then timed cycles until the budget would be exceeded, at least one.
func timedLoop(o options, setupStart time.Time, col *collector, cycle func(idx int) error) error {
	if err := cycle(0); err != nil {
		return err
	}
	col.setup = time.Since(setupStart)
	o.logf("set-up %.3fs (including the warm-up round)", col.setup.Seconds())
	start := time.Now()
	var last time.Duration
	for idx := 1; idx == 1 || time.Since(start)+last <= o.budget; idx++ {
		t0 := time.Now()
		if err := cycle(idx); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}
