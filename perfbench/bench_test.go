package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rpc"
)

// serverBin is the xrd-server binary built once for the toy runs.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xrdbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "xrd-server")
	cmd := exec.Command("go", "build", "-o", serverBin, "repro/cmd/xrd-server")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building xrd-server: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// toy returns a workload shrunk to test size, keeping its shape.
func toy(name string) spec {
	s := workloads[name]
	s.registered, s.active, s.rate = 400, 40, 4000
	return s
}

func toyRun(t *testing.T, s spec, trace bool, faults *deliveryFault) *result {
	t.Helper()
	res, err := run(s, options{
		seed:      7,
		trace:     trace,
		serverBin: serverBin,
		dir:       t.TempDir(),
		faults:    faults,
	})
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return res
}

func find(t *testing.T, r *result, name string) metric {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m
		}
	}
	t.Fatalf("metric %s missing", name)
	return metric{}
}

func value(t *testing.T, r *result, name string) float64 {
	t.Helper()
	return find(t, r, name).value
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, name := range []string{"deployed-10k", "durable-1m"} {
		t.Run(name, func(t *testing.T) {
			res := toyRun(t, toy(name), false, nil)
			if !res.correct() {
				t.Fatalf("run not correct: %d of %d operations failed", res.failed, res.attempted)
			}
			want := []string{"setup_s", "round_s", "msgs_per_s", "submit_ms_p50", "cpu_s_per_round", "peak_rss_mb"}
			notes := []string{"submit_ms_p99", "fetch_ms_p50", "fetch_ms_p99", "client_build_ms"}
			for _, m := range want {
				if v := value(t, res, m); !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%d metrics reported, want %d", len(res.metrics), len(want))
			}
			for _, m := range notes {
				if v := value(t, &result{metrics: res.notes}, m); !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
		})
	}
}

// TestTracedPartsSumToRound runs each workload's traced variant with
// exactly one traced round (and one round of the untraced deployment
// before it) and checks the traced round's named parts add up to its
// time, none negative.
func TestTracedPartsSumToRound(t *testing.T) {
	parts := []string{"core.announce_s", "core.build_s", "core.finish_s", "core.self_s",
		"mix.verify_s", "mix.hop_s", "mix.between_hops_s", "mix.reveal_s"}
	for _, name := range []string{"deployed-10k", "durable-1m"} {
		t.Run(name, func(t *testing.T) {
			res := toyRun(t, toy(name), true, nil)
			if !res.correct() {
				t.Fatalf("traced run not correct: %d of %d operations failed", res.failed, res.attempted)
			}
			sum := 0.0
			for _, p := range parts {
				v := value(t, res, p)
				if v < 0 {
					t.Errorf("%s = %v < 0", p, v)
				}
				sum += v
			}
			round := value(t, res, "trace.round_s")
			if math.Abs(sum-round) > 1e-6 {
				t.Errorf("parts sum to %.6fs, traced round took %.6fs", sum, round)
			}
			if value(t, res, "trace.round_s_untraced") <= 0 {
				t.Error("no untraced round reported beside the traced one")
			}
			for _, k := range []string{"nizk.verify_us_per_proof", "group.parse_point_us", "group.mul_us",
				"group.base_us", "onion.wrap_us", "mailbox.deliver_us_per_msg", "store.append_us", "store.sync_ms",
				"rpc.hop_remote_s", "rpc.hop_codec_s", "rpc.hop_bytes_per_msg",
				"rpc.submit_ms_p50", "rpc.fetch_ms_p50", "rpc.register_per_s", "client.open_ms", "client.build_ms",
				"proc.rss_mb.coordinator", "proc.rss_mb.gateway", "proc.rss_mb.mix"} {
				if v := value(t, res, k); !(v > 0) {
					t.Errorf("%s = %v, want > 0", k, v)
				}
			}
			// Per-role CPU is counted in clock ticks, so one role's
			// share of a toy round may read 0; the roles together may
			// not. It comes from the untraced deployment's processes,
			// one sample per untraced round.
			cpu := 0.0
			for _, role := range roles {
				m := find(t, res, "proc.cpu_s."+role)
				if m.n != 1 {
					t.Errorf("%s has %d samples, want the untraced round's 1", m.name, m.n)
				}
				cpu += m.value
			}
			if !(cpu > 0) {
				t.Errorf("proc.cpu_s.* sum to %v, want > 0", cpu)
			}
		})
	}
}

func TestAttributeCoversRoundOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{kind: "announce", start: at(0), end: at(1)},
		{kind: "build", start: at(2), end: at(10)},
		{kind: "mix", chain: 0, pos: 0, start: at(12), end: at(20), envelopes: 4},
		{kind: "mix", chain: 0, pos: 1, start: at(22), end: at(30), envelopes: 4},
		{kind: "mix", chain: 1, pos: 0, start: at(11), end: at(15), envelopes: 4},
		{kind: "announce", start: at(31), end: at(33)},
		{kind: "finish", start: at(34), end: at(40)},
	}
	p := attribute(t0, at(42), spans)
	check := func(name string, got time.Duration, wantMs int) {
		if got != time.Duration(wantMs)*time.Millisecond {
			t.Errorf("%s = %v, want %dms", name, got, wantMs)
		}
	}
	check("announce", p.announce, 3)
	check("build", p.build, 8)
	check("verify", p.verify, 2)
	check("hop", p.hop, 16)
	check("between", p.between, 2)
	check("reveal", p.reveal, 2) // 30→34 less the trailing announce
	check("finish", p.finish, 6)
	check("self", p.self, 3) // 1→2, 10→... none, 40→42
	if p.positions != 2 || p.envelopes != 4 {
		t.Errorf("critical chain: %d positions of %d envelopes, want 2 of 4", p.positions, p.envelopes)
	}
	sum := p.announce + p.build + p.verify + p.hop + p.between + p.reveal + p.finish + p.self
	if sum != p.round {
		t.Errorf("parts sum to %v, round is %v", sum, p.round)
	}
}

// TestDeliveryFaultsFailTheRun tampers with the deliveries of the
// traced variant, whose coordinator runs in this process.
func TestDeliveryFaultsFailTheRun(t *testing.T) {
	for _, f := range []*deliveryFault{{withhold: true}, {surplus: true}} {
		res := toyRun(t, toy("deployed-10k"), true, f)
		if res.correct() || res.failed == 0 {
			t.Errorf("fault %+v: run reported correct (%d of %d failed)", f, res.failed, res.attempted)
		}
	}
}

func TestLateGeneratorShowsInLag(t *testing.T) {
	// One worker, 200 submissions/s, each taking 20ms: the generator
	// falls 15ms further behind per submission.
	l := &loader{eps: make([]rpc.Endpoint, 1), workers: make([]*rpc.MultiClient, 1), gwOf: []int{0}}
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ol := submitOpenLoop(l, items, func(int) int { return 0 }, 200, func(*rpc.MultiClient, int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if ol.lagMax < 100*time.Millisecond {
		t.Errorf("lag max %v, want at least 100ms", ol.lagMax)
	}
	if got := ol.latency.quantile(1); got < ms(ol.lagMax) {
		t.Errorf("latency max %.1fms below the generator's lag %.1fms: latency is not timed from the schedule", got, ms(ol.lagMax))
	}
	c := newCollector()
	c.lagMax = ol.lagMax
	if v := value(t, c.perLayer(), "load.lag_ms_max"); v < 100 {
		t.Errorf("load.lag_ms_max = %v, want ≥ 100", v)
	}
}
