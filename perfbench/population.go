package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/onion"
	"repro/internal/trace"
)

// population is the active user set of a workload: conversation pairs
// fixed by the seed, plus the bookkeeping that predicts exactly which
// messages every mailbox must hold after each round.
type population struct {
	seed  int64
	users []*client.User
	byMB  map[string]int
	pairs [][2]int
	// banked[i] lists the messages user i's covers will deliver if she
	// misses the next round: set when she submits, consumed when she
	// is offline (covers run once, §5.3.3).
	banked [][]slot
}

// slot is one of a user's ℓ messages for a round: its recipient and
// what the recipient should decrypt.
type slot struct {
	to  int
	key msgKey
}

// msgKey identifies a decrypted mailbox message: who sent it, its kind
// and its body.
type msgKey struct {
	from int
	kind onion.Kind
	body string
}

func newPopulation(users []*client.User, seed int64) (*population, error) {
	w, err := trace.Generate(trace.Config{NumUsers: len(users), PairedFraction: 1, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generating pairing: %w", err)
	}
	p := &population{
		seed:   seed,
		users:  users,
		byMB:   make(map[string]int, len(users)),
		pairs:  w.Pairs,
		banked: make([][]slot, len(users)),
	}
	for i, u := range users {
		p.byMB[string(u.Mailbox())] = i
	}
	return p, nil
}

// newUsers creates n transport users in parallel.
func newUsers(n int, mk func() *client.User) []*client.User {
	users := make([]*client.User, n)
	parallel(n, func(i int) { users[i] = mk() })
	return users
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				f(i)
			}
		}(g)
	}
	wg.Wait()
}

// buildSample is how many users' builds a round times, one at a time.
const buildSample = 256

// buildAll runs build for every user: buildSample of them, spread
// evenly over the list, one at a time and timed (a user builds alone
// on her own device), the others in parallel between them. It returns
// the timed builds' durations in milliseconds.
func buildAll(users []int, build func(u int) error) (samples, error) {
	n := min(buildSample, len(users))
	timed := make(samples, 0, n)
	errs := make([]error, len(users))
	for k := 0; k < n; k++ {
		lo, hi := k*len(users)/n, (k+1)*len(users)/n
		t0 := time.Now()
		if err := build(users[lo]); err != nil {
			return nil, err
		}
		timed = append(timed, ms(time.Since(t0)))
		rest := users[lo+1 : hi]
		parallel(len(rest), func(i int) { errs[lo+1+i] = build(rest[i]) })
	}
	return timed, errors.Join(errs...)
}

// roundPlan is the prediction for one round.
type roundPlan struct {
	round  uint64
	online []bool
	// expect maps each fetching receiver to the multiset of messages
	// her mailbox must hold.
	expect []map[msgKey]int
	// total is the number of messages the round must deliver.
	total int
	// covered is the number of offline users whose covers run.
	covered int
}

// plan decides who is online in round (timed round index idx; 0 is
// the warm-up, where everyone is online), (re)starts the online
// pairs' conversations, queues this round's seeded bodies and
// predicts every mailbox. It must run before the round's onions are
// built.
func (p *population) plan(round uint64, idx int, offline float64) (*roundPlan, error) {
	n := len(p.users)
	rp := &roundPlan{round: round, online: make([]bool, n), expect: make([]map[msgKey]int, n)}
	rng := rand.New(rand.NewPCG(uint64(p.seed), uint64(idx)))
	for i := range rp.online {
		rp.online[i] = idx == 0 || rng.Float64() >= offline
	}
	bodies := make(map[[2]int][]byte)
	for k, pr := range p.pairs {
		a, b := pr[0], pr[1]
		if !rp.online[a] || !rp.online[b] {
			continue
		}
		for _, d := range [][2]int{{a, b}, {b, a}} {
			from, to := p.users[d[0]], p.users[d[1]]
			if err := from.StartConversation(to.PublicKey()); err != nil {
				return nil, err
			}
			body := seededBody(p.seed, idx, k, d[0] == a)
			if err := from.QueueMessageFor(to.PublicKey(), body); err != nil {
				return nil, err
			}
			bodies[d] = body
		}
	}
	count := func(ss []slot) {
		for _, s := range ss {
			rp.total++
			if s.to >= 0 && rp.online[s.to] {
				if rp.expect[s.to] == nil {
					rp.expect[s.to] = make(map[msgKey]int)
				}
				rp.expect[s.to][s.key]++
			}
		}
	}
	for y := range p.users {
		if !rp.online[y] {
			if p.banked[y] != nil {
				count(p.banked[y])
				rp.covered++
				p.banked[y] = nil
			}
			continue
		}
		cur, cover := p.slots(y, bodies)
		count(cur)
		p.banked[y] = cover
	}
	return rp, nil
}

// slots mirrors client.User.BuildRound's placement: one message per
// selected chain, the first occurrence of a chain carrying a
// conversation goes to that partner, every other one is a loopback.
// The cover lane has the same placement with an offline signal in
// place of the conversation message.
func (p *population) slots(y int, bodies map[[2]int][]byte) (cur, cover []slot) {
	u := p.users[y]
	partners := u.MeetingChains()
	used := make(map[int]bool, len(partners))
	for _, c := range u.Chains() {
		if pk, ok := partners[c]; ok && !used[c] {
			used[c] = true
			to, known := p.byMB[string(pk.Bytes())]
			if !known {
				to = -1
			}
			body := string(bodies[[2]int{y, to}])
			cur = append(cur, slot{to: to, key: msgKey{from: y, kind: onion.KindConversation, body: body}})
			cover = append(cover, slot{to: to, key: msgKey{from: y, kind: onion.KindOffline}})
			continue
		}
		loop := slot{to: y, key: msgKey{from: y, kind: onion.KindLoopback}}
		cur = append(cur, loop)
		cover = append(cover, loop)
	}
	return cur, cover
}

// seededBody is the message body of pair k's direction in timed round
// idx.
func seededBody(seed int64, idx, k int, forward bool) []byte {
	dir := uint64(0)
	if forward {
		dir = 1
	}
	rng := rand.New(rand.NewPCG(uint64(seed)^0x9e3779b97f4a7c15, uint64(idx)<<33|uint64(k)<<1|dir))
	b := make([]byte, 32)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b
}

// check compares what receiver x decrypted with the prediction and
// returns the messages missing and the surplus ones (undecryptable
// messages are counted by the caller).
func (p *population) check(rp *roundPlan, x int, recv []client.Received) (missing, surplus int) {
	got := make(map[msgKey]int, len(recv))
	for _, r := range recv {
		from := x
		if r.FromPartner || r.FromFormerPartner {
			i, ok := p.byMB[string(r.From.Bytes())]
			if !ok {
				i = -1
			}
			from = i
		}
		got[msgKey{from: from, kind: r.Kind, body: string(r.Body)}]++
	}
	want := rp.expect[x]
	for k, n := range want {
		if g := got[k]; g < n {
			missing += n - g
		}
	}
	for k, g := range got {
		if n := want[k]; g > n {
			surplus += g - n
		}
	}
	return missing, surplus
}
