package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/rpc"
)

// server is one xrd-server process of a deployment.
type server struct {
	role, name  string
	addr, admin string
	cert        string
	cmd         *exec.Cmd
	done        chan struct{}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop interrupts the process (the roles shut down on SIGINT), kills
// it if it has not exited within a few seconds, and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.done
}

// cluster is a running deployment: 3 mix processes, 2 gateway shards
// and either a coordinator process or an in-process core.Network.
type cluster struct {
	mixes    []*server
	gateways []*server
	coord    *server       // untraced: the coordinator process
	trigger  *rpc.Client   // untraced: the coordinator's user endpoint
	net      *core.Network // traced: the in-process coordinator
	hops     []*rpc.HopClient
	shards   []*rpc.ShardClient
	eps      []rpc.Endpoint
}

// The deployed topology, mirroring scripts/deploy_e2e.sh: one chain
// of 3 mix servers and 2 gateway shards; every other setting is the
// xrd-server default.
const (
	mixCount     = 3
	chainSeed    = "public-beacon"
	mailboxCount = 2
)

var shardRanges = []core.ShardRange{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}}

func (c *cluster) servers() []*server {
	all := append(append([]*server{}, c.mixes...), c.gateways...)
	if c.coord != nil {
		all = append(all, c.coord)
	}
	return all
}

func (c *cluster) close() {
	if c.trigger != nil {
		c.trigger.Close()
	}
	for _, h := range c.hops {
		h.Close()
	}
	for _, sc := range c.shards {
		sc.Close()
	}
	var wg sync.WaitGroup
	for _, s := range c.servers() {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

// freeAddrs reserves n loopback ports (released just before use).
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

func startServer(bin, dir, role, name, addr, admin string, args ...string) (*server, error) {
	s := &server{role: role, name: name, addr: addr, admin: admin, cert: filepath.Join(dir, name+".pem"), done: make(chan struct{})}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-role", role, "-addr", addr, "-cert-out", s.cert, "-admin-addr", admin}, args...)
	s.cmd = exec.Command(bin, argv...)
	s.cmd.Dir = dir
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Should this process die without stopping its deployment, the
	// kernel kills the servers with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = s.cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitReady waits for a process's certificate file and /healthz.
func (s *server) waitReady(deadline time.Time) error {
	for {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited during start-up (see %s.log)", s.name, s.name)
		default:
		}
		if st, err := os.Stat(s.cert); err == nil && st.Size() > 0 && healthy(s.admin) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready", s.name)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func healthy(admin string) bool {
	c := http.Client{Timeout: time.Second}
	resp, err := c.Get("http://" + admin + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func clientTLS(s *server) (rpc.Endpoint, error) {
	pem, err := os.ReadFile(s.cert)
	if err != nil {
		return rpc.Endpoint{}, err
	}
	cfg, err := rpc.ClientTLSFromPEM(pem)
	if err != nil {
		return rpc.Endpoint{}, err
	}
	return rpc.Endpoint{Addr: s.addr, TLS: cfg}, nil
}

// launch starts the deployment. With tr set the coordinator runs in
// this process over decorated shard and hop clients, the shard
// decorators applying fault if it is set; otherwise it is an
// xrd-server process reached through its user endpoint.
func launch(bin, dir string, durable bool, tr *tracer, fault *deliveryFault) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	addrs, err := freeAddrs(2 * (mixCount + len(shardRanges) + 1))
	if err != nil {
		return nil, err
	}
	next := func() string { a := addrs[0]; addrs = addrs[1:]; return a }
	for i := 0; i < mixCount; i++ {
		s, err := startServer(bin, dir, "mix", fmt.Sprintf("mix%d", i), next(), next())
		if err != nil {
			return nil, err
		}
		c.mixes = append(c.mixes, s)
	}
	for i, r := range shardRanges {
		args := []string{"-shard-range", r.String()}
		if durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("gw%d-data", i)))
		}
		s, err := startServer(bin, dir, "gateway", fmt.Sprintf("gw%d", i), next(), next(), args...)
		if err != nil {
			return nil, err
		}
		c.gateways = append(c.gateways, s)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range append(append([]*server{}, c.mixes...), c.gateways...) {
		if err := s.waitReady(deadline); err != nil {
			return nil, err
		}
	}
	if tr == nil {
		var mixSpec, gwSpec string
		for i, m := range c.mixes {
			mixSpec += fmt.Sprintf(",%d=%s=%s", i, m.addr, m.cert)
		}
		for i, g := range c.gateways {
			gwSpec += fmt.Sprintf(",%s=%s=%s", shardRanges[i], g.addr, g.cert)
		}
		s, err := startServer(bin, dir, "coordinator", "coord", next(), next(),
			"-servers", fmt.Sprint(mixCount), "-chains", "1", "-k", fmt.Sprint(mixCount),
			"-seed", chainSeed, "-interval", "0",
			"-mix-servers", mixSpec[1:], "-gateways", gwSpec[1:])
		if err != nil {
			return nil, err
		}
		c.coord = s
		if err := s.waitReady(deadline); err != nil {
			return nil, err
		}
		ep, err := clientTLS(s)
		if err != nil {
			return nil, err
		}
		if c.trigger, err = rpc.Dial(ep.Addr, ep.TLS); err != nil {
			return nil, err
		}
		c.trigger.Timeout = 10 * time.Minute
	} else if err := c.coordinateInProcess(tr, fault); err != nil {
		return nil, err
	}
	for _, g := range c.gateways {
		ep, err := clientTLS(g)
		if err != nil {
			return nil, err
		}
		c.eps = append(c.eps, ep)
	}
	ok = true
	return c, nil
}

// coordinateInProcess assembles the coordinator as core.Network with
// the same settings the coordinator process would use, every shard
// and hop wrapped by a timing decorator.
func (c *cluster) coordinateInProcess(tr *tracer, fault *deliveryFault) error {
	cfg := core.Config{
		NumServers:          mixCount,
		NumChains:           1,
		ChainLengthOverride: mixCount,
		F:                   0.2,
		Seed:                []byte(chainSeed),
		MailboxServers:      mailboxCount,
		Recover:             true,
		PipelineDepth:       1,
	}
	for i, g := range c.gateways {
		ep, err := clientTLS(g)
		if err != nil {
			return err
		}
		sc, err := rpc.NewShardClient(shardRanges[i].Lo, shardRanges[i].Hi, ep.Addr, ep.TLS)
		if err != nil {
			return err
		}
		c.shards = append(c.shards, sc)
		cfg.Shards = append(cfg.Shards, &timedShard{GatewayShard: sc, tr: tr, fault: fault})
	}
	clients := make(map[int]*rpc.HopClient)
	meters := make(map[int]*wireMeter)
	cfg.HopForServer = func(epoch uint64, srv, chain, pos int, base group.Point) (mix.Hop, error) {
		hc, ok := clients[srv]
		if !ok {
			ep, err := clientTLS(c.mixes[srv])
			if err != nil {
				return nil, err
			}
			hc = rpc.DialHop(ep.Addr, ep.TLS)
			meters[srv] = &wireMeter{}
			hc.SetConnWrapper(meters[srv].wrap)
			clients[srv] = hc
			c.hops = append(c.hops, hc)
		}
		if _, err := hc.InitEpoch(epoch, chain, pos, base); err != nil {
			return nil, err
		}
		return &timedHop{Hop: hc, tr: tr, chain: chain, pos: pos, wire: meters[srv]}, nil
	}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		return fmt.Errorf("assembling coordinator: %w", err)
	}
	for _, sc := range c.shards {
		if err := sc.Init(n); err != nil {
			return err
		}
	}
	c.net = n
	return nil
}

// runRound triggers one round and returns what the coordinator
// reports.
func (c *cluster) runRound() (delivered, covered int, err error) {
	if c.net != nil {
		rep, err := c.net.RunRound()
		if err != nil {
			return 0, 0, err
		}
		if len(rep.HaltedChains)+len(rep.FailedChains)+len(rep.DeadChains)+len(rep.DeadShards) > 0 {
			return 0, 0, fmt.Errorf("round %d: halted %v failed %v dead %v dead shards %v",
				rep.Round, rep.HaltedChains, rep.FailedChains, rep.DeadChains, rep.DeadShards)
		}
		return rep.Delivered, rep.OfflineCovered, nil
	}
	rep, err := c.trigger.RunRound()
	if err != nil {
		return 0, 0, err
	}
	if len(rep.HaltedChains)+len(rep.FailedChains) > 0 {
		return 0, 0, fmt.Errorf("round %d: halted %v failed %v", rep.Round, rep.HaltedChains, rep.FailedChains)
	}
	return rep.Delivered, rep.OfflineCovered, nil
}

// syntheticRNG derives the stream the synthetic registered
// population's mailbox identifiers are drawn from.
func syntheticRNG(seed int64) *rand.ChaCha8 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	return rand.NewChaCha8(sha256.Sum256(buf[:]))
}
