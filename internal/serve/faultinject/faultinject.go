// Package faultinject supplies the deterministic fault hooks the serve
// daemon's chaos tests (and the ciserve -faults flag) drive. A Plan
// holds per-site fault rates and a seed; Decide maps a (job key,
// attempt) pair onto the concrete faults that attempt suffers. The
// mapping is a pure function of its inputs — no global randomness, no
// clock — so a chaos run injects exactly the same faults into exactly
// the same jobs regardless of goroutine interleaving, worker count or
// wall-clock speed, which is what lets the tests assert hard outcomes
// ("this job panics twice, then succeeds") instead of probabilistic
// ones.
//
// Fault sites, one rate knob each:
//
//   - worker panic: the attempt's observer panics mid-run, exercising
//     the façade's panic recovery (Session.Run returns a
//     *sim.PanicError) and the server's retry path
//   - slow job: the attempt sleeps before simulating, holding its
//     worker slot so queues back up (backpressure and queue-wait
//     watermarks become reachable in tests)
//   - mid-job cancel: the attempt's context is cancelled after a fixed
//     number of committed instructions, exactly like a client DELETE
//   - trace-write failure: the attempt's journal writer starts
//     erroring after a fixed byte count, exercising the transient
//     retry path and atomic-journal cleanup
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Plan configures the injector: a seed plus one rate in [0,1] per
// fault site. The zero value injects nothing.
type Plan struct {
	// Seed scrambles every decision; two plans with different seeds
	// fault different jobs at the same rates.
	Seed uint64
	// PanicRate is the per-attempt probability of a worker panic.
	PanicRate float64
	// SlowRate is the per-attempt probability of an artificial delay of
	// SlowFor.
	SlowRate float64
	// SlowFor is the injected delay (default 5ms when SlowRate > 0).
	SlowFor time.Duration
	// CancelRate is the per-attempt probability of a mid-job cancel.
	CancelRate float64
	// TraceFailRate is the per-attempt probability that the attempt's
	// trace journal writer fails partway through.
	TraceFailRate float64
}

// Enabled reports whether the plan can inject anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.PanicRate > 0 || p.SlowRate > 0 || p.CancelRate > 0 || p.TraceFailRate > 0)
}

// Decision is the set of faults one job attempt suffers. Zero-valued
// fields mean "no fault at this site".
type Decision struct {
	// Panic makes the attempt's observer panic once PanicAfter
	// instructions have committed.
	Panic bool
	// PanicAfter is the committed-instruction threshold for Panic.
	PanicAfter uint64
	// Sleep delays the attempt before it starts simulating.
	Sleep time.Duration
	// CancelAfter, when non-zero, cancels the attempt's context once
	// that many instructions have committed.
	CancelAfter uint64
	// TraceFailAfter, when non-zero, makes the attempt's journal writer
	// return errors after that many bytes.
	TraceFailAfter int
}

// Faulted reports whether the decision injects anything.
func (d Decision) Faulted() bool {
	return d.Panic || d.Sleep > 0 || d.CancelAfter > 0 || d.TraceFailAfter > 0
}

// Decide returns the faults for one attempt of the job identified by
// key. It is deterministic: the same (plan, key, attempt) triple
// always returns the same decision.
func (p *Plan) Decide(key string, attempt int) Decision {
	if !p.Enabled() {
		return Decision{}
	}
	base := mix(p.Seed ^ hashString(key) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	var d Decision
	if roll(base, 1) < p.PanicRate {
		d.Panic = true
		d.PanicAfter = 500 + base%1500 // vary the blow-up point a little
	}
	if roll(base, 2) < p.SlowRate {
		d.Sleep = p.SlowFor
		if d.Sleep <= 0 {
			d.Sleep = 5 * time.Millisecond
		}
	}
	// A cancel and a panic on the same attempt would race each other;
	// the panic wins so each induced fault has one unambiguous outcome.
	if !d.Panic && roll(base, 3) < p.CancelRate {
		d.CancelAfter = 1000 + base%1000
	}
	if roll(base, 4) < p.TraceFailRate {
		d.TraceFailAfter = int(64 + base%4096)
	}
	return d
}

// roll derives an independent uniform [0,1) variate for fault site n.
func roll(base, n uint64) float64 {
	return float64(mix(base+n*0x2545f4914f6cdd1d)>>11) / (1 << 53)
}

// mix is splitmix64's finalizer: a cheap, well-distributed scrambler.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ParsePlan parses the ciserve -faults flag syntax: comma-separated
// key=value pairs, e.g.
//
//	seed=7,panic=0.05,slow=0.1:5ms,cancel=0.02,tracefail=0.05
//
// slow takes an optional :duration suffix. An empty string is the nil
// plan (no injection).
func ParsePlan(s string) (*Plan, error) {
	if s == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad pair %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "panic":
			p.PanicRate, err = parseRate(v)
		case "cancel":
			p.CancelRate, err = parseRate(v)
		case "tracefail":
			p.TraceFailRate, err = parseRate(v)
		case "slow":
			rate, dur, hasDur := strings.Cut(v, ":")
			p.SlowRate, err = parseRate(rate)
			if err == nil && hasDur {
				p.SlowFor, err = time.ParseDuration(dur)
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown fault site %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: %v", k, err)
		}
	}
	return p, nil
}

func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("rate %v outside [0,1]", f)
	}
	return f, nil
}
