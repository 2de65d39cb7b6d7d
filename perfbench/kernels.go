package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/mailbox"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/store"
)

// kernelBudget is how long each replay repeats its call.
const kernelBudget = 250 * time.Millisecond

// repeat runs f until kernelBudget has passed (at least 3 times) and
// returns the median duration of one call with the call count.
func repeat(f func() error) (time.Duration, int, error) {
	var s samples
	start := time.Now()
	for len(s) < 3 || time.Since(start) < kernelBudget {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		s = append(s, float64(time.Since(t0)))
	}
	return time.Duration(s.median()), len(s), nil
}

// runKernels replays public functions of the primitive layers on the
// data the traced rounds captured, every check those functions make
// left in place, and adds one metric per kernel.
func runKernels(col *collector, tr *tracer, dir string) error {
	tr.mu.Lock()
	batch, round, chain, params := tr.batch, tr.batchRound, tr.batchChain, tr.params
	envs, delivered := tr.envelopes, tr.delivered
	tr.mu.Unlock()
	if len(batch) == 0 || len(envs) == 0 || len(delivered) == 0 {
		return fmt.Errorf("kernel replay: the traced rounds captured no data")
	}
	// add records d, the median time of n calls each covering per
	// items, per item in unit ("us" or "ms").
	add := func(name string, d time.Duration, per, n int, unit string) {
		scale := time.Microsecond
		if unit == "ms" {
			scale = time.Millisecond
		}
		col.kernels = append(col.kernels, metric{name: name, value: float64(d) / float64(scale) / float64(per), unit: unit, n: n})
	}

	d, n, err := repeat(func() error {
		if bad := mix.VerifySubmissionProofs(batch, round, chain); len(bad) > 0 {
			return fmt.Errorf("kernel replay: %d captured proofs failed to verify", len(bad))
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("nizk.verify_us_per_proof", d, len(batch), n, "us")

	enc := make([][]byte, len(envs))
	for i, e := range envs {
		enc[i] = e.DHKey.Bytes()
	}
	d, n, err = repeat(func() error {
		for i, b := range enc {
			p, err := group.ParsePoint(b)
			if err != nil {
				return err
			}
			if i == 0 && !p.Equal(envs[0].DHKey) {
				return fmt.Errorf("kernel replay: parsed point differs")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("group.parse_point_us", d, len(enc), n, "us")

	k := group.MustRandomScalar()
	d, n, err = repeat(func() error {
		for _, e := range envs {
			if e.DHKey.Mul(k).IsIdentity() {
				return fmt.Errorf("kernel replay: scalar multiple is the identity")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("group.mul_us", d, len(envs), n, "us")

	const bases = 256
	d, n, err = repeat(func() error {
		for i := 0; i < bases; i++ {
			if group.Base(k).IsIdentity() {
				return fmt.Errorf("kernel replay: g^k is the identity")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("group.base_us", d, bases, n, "us")

	scheme := aead.ChaCha20Poly1305()
	var secret [32]byte
	copy(secret[:], k.Bytes())
	nonce := aead.RoundNonce(round, 0)
	msg, err := onion.SealMailboxMessage(scheme, kdf.LoopbackKey(secret, chain), nonce, group.Base(k), onion.Payload{Kind: onion.KindLoopback})
	if err != nil {
		return err
	}
	const wraps = 32
	d, n, err = repeat(func() error {
		for i := 0; i < wraps; i++ {
			sub, err := onion.WrapAHS(scheme, params.InnerAggregate, params.MixKeys, round, chain, nonce, msg)
			if err != nil {
				return err
			}
			if i == 0 {
				if err := onion.VerifySubmission(sub, round, chain); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("onion.wrap_us", d, wraps, n, "us")

	d, n, err = repeat(func() error {
		c, err := mailbox.NewCluster(mailboxCount)
		if err != nil {
			return err
		}
		if got, bad, _ := c.Deliver(round, delivered); got != len(delivered) || bad != 0 {
			return fmt.Errorf("kernel replay: delivered %d of %d captured messages", got, len(delivered))
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("mailbox.deliver_us_per_msg", d, len(delivered), n, "us")

	return storeKernels(add, dir)
}

// walOp tags the replayed records; the store never interprets it.
const walOp store.Op = 6

// storeKernels times store.Durable appends of submission-sized
// records and fsyncs in a scratch directory under dir.
func storeKernels(add func(string, time.Duration, int, int, string), dir string) error {
	wal := filepath.Join(dir, "kernel-wal")
	defer os.RemoveAll(wal)
	st, _, err := store.Open(wal, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	// A submission carries ℓ current and ℓ cover onions (ℓ = 1 on the
	// deployed topology's single chain of 3).
	payload := make([]byte, 2*onion.SubmissionWireSize(mixCount))
	const appends = 256
	d, n, err := repeat(func() error {
		for i := 0; i < appends; i++ {
			if err := st.Append(walOp, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("store.append_us", d, appends, n, "us")
	d, n, err = repeat(func() error {
		if err := st.Append(walOp, payload); err != nil {
			return err
		}
		return st.Sync()
	})
	if err != nil {
		return err
	}
	add("store.sync_ms", d, 1, n, "ms")
	return nil
}
