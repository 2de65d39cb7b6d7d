// Command xrdbench is the repository benchmark. It runs one of two
// workloads against the XRD implementation, checks every delivered
// message, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	xrdbench -server-bin .bench_build/xrd-server -work .bench_build \
//	    --workload deployed-10k --seed 1 --seconds 30 --trace 0
//
// Workloads (see workloads below):
//
//   - deployed-10k: coordinator, 2 gateway shards and 3 mix processes
//     (one chain of 3) over loopback TLS; 100k registered users, 10k
//     active users in conversation pairs, open-loop submissions.
//   - durable-1m: the deployed topology with WAL-backed gateways,
//     1M registered users, 2,000 active, 20% offline per round.
//
// Every workload keeps one population across a warm-up round and the
// timed rounds. The seed fixes the pairing, the message bodies and
// the offline schedule; keys stay random.
//
// With --trace 0 the end-to-end metrics are printed. With --trace 1
// the workload first runs untraced for one timed round, for the
// per-process /proc figures and the untraced round time; then a second
// deployment runs with the coordinator inside this process and every
// gateway shard and mix hop wrapped by a timing decorator, giving the
// per-layer metrics; kernel replays on data captured from the traced
// rounds time the primitives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec sizes one workload.
type spec struct {
	name string
	// durable gives the gateway processes a -data-dir.
	durable bool
	// registered is the registered population, active of which submit.
	registered, active int
	// rate is the open-loop submission rate per second.
	rate float64
	// offline is the seeded share of active users offline in each
	// timed round (their banked covers run in their place).
	offline float64
}

var workloads = map[string]spec{
	"deployed-10k": {name: "deployed-10k", registered: 100_000, active: 10_000, rate: 1200},
	"durable-1m":   {name: "durable-1m", durable: true, registered: 1_000_000, active: 2_000, rate: 500, offline: 0.2},
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name: deployed-10k or durable-1m")
		seed      = flag.Int64("seed", 1, "workload seed: pairing, message bodies and offline schedule")
		seconds   = flag.Float64("seconds", 30, "measurement budget for the timed rounds")
		traceOn   = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		serverBin = flag.String("server-bin", "", "xrd-server binary")
		work      = flag.String("work", ".", "directory for run state (certificates, logs, WAL)")
	)
	flag.Parse()
	res, err := runMain(*workload, *serverBin, *work, options{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *traceOn == 1,
		log:    os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xrdbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct() {
		os.Exit(1)
	}
}

// runMain runs one workload with its run state in a fresh directory
// under work, removed again before it returns.
func runMain(workload, serverBin, work string, o options) (*result, error) {
	s, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if serverBin == "" {
		return nil, fmt.Errorf("workload %s needs -server-bin", s.name)
	}
	bin, err := filepath.Abs(serverBin)
	if err != nil {
		return nil, err
	}
	o.serverBin = bin
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	return run(s, o)
}

// metric is one reported number; n is its sample count (0 when the
// value is not a statistic over samples).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one run's outcome: its metrics, and notes — numbers
// printed for the reader but left out of the machine-readable result.
type result struct {
	attempted, failed int
	metrics, notes    []metric
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func (r *result) note(name string, value float64, unit string, n int) {
	r.notes = append(r.notes, metric{name: name, value: value, unit: unit, n: n})
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes one human-readable line per metric (with its sample
// count), then the machine-readable JSON object as the last line.
func (r *result) print(w *os.File) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %14.6f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		ms[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	for _, m := range r.notes {
		fmt.Fprintf(w, "%-28s %14.6f %-8s n=%d (not in the result)\n", m.name, m.value, m.unit, m.n)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6f %-8s n=%d (failed %d; the result's failed/attempted)\n", "error_rate", errRate, "ratio", r.attempted, r.failed)
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(b))
}

// options are the per-run settings shared by every workload.
type options struct {
	seed      int64
	budget    time.Duration
	trace     bool
	serverBin string
	dir       string
	log       *os.File
	// faults, when set, tamper with a round's deliveries on their way
	// from the in-process coordinator of a traced run to the gateway
	// shards (tests of the delivery check).
	faults *deliveryFault
}

func (o *options) logf(format string, args ...any) {
	if o.log != nil {
		fmt.Fprintf(o.log, "xrdbench: "+format+"\n", args...)
	}
}

func run(s spec, o options) (*result, error) {
	o.logf("%s: seed %d, budget %s, trace %v, GOMAXPROCS %d", s.name, o.seed, o.budget, o.trace, runtime.GOMAXPROCS(0))
	if !o.trace {
		col, _, err := runPhase(s, o)
		if err != nil {
			return nil, err
		}
		return col.endToEnd(), nil
	}
	// The traced run first runs the workload untraced on a deployment
	// of its own, for one timed round: its server processes give the
	// per-role /proc figures, and its round the untraced round_s
	// reported beside the traced one. A second deployment, coordinated
	// from this process through the timing decorators, then runs the
	// traced rounds.
	base := o
	base.trace, base.budget, base.dir = false, 0, filepath.Join(o.dir, "untraced")
	ucol, _, err := runPhase(s, base)
	if err != nil {
		return nil, err
	}
	o.dir = filepath.Join(o.dir, "traced")
	col, tr, err := runPhase(s, o)
	if err != nil {
		return nil, err
	}
	col.tally(ucol.attempted, ucol.failed)
	col.round, col.roleCPU, col.roleRSS = ucol.round, ucol.roleCPU, ucol.roleRSS
	if err := runKernels(col, tr, o.dir); err != nil {
		return nil, err
	}
	return col.perLayer(), nil
}

// runPhase runs one deployment of s in o.dir: set-up, the warm-up
// round and the timed rounds.
func runPhase(s spec, o options) (*collector, *tracer, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	return runDeployed(s, o)
}
