// Package load is the open-loop traffic generator behind esteem-load:
// it synthesizes parameterised request schedules (ramps, bursts,
// seeded arrival jitter, cache-hot/cold mixes), drives an esteem-serve
// daemon with them without ever gating arrivals on completions, and
// records the service-level outcome — p50/p99/p999 latency,
// throughput, 429 and error counts, queue wait and the cache hit/miss
// split scraped from /metrics — as a Report, whose Check method is the
// smoke test CI's load-smoke lane applies.
//
// The schedule model follows the invitro trace synthesizer: a list of
// constant-rate slots described by a starting RPS, a step size and a
// target RPS, optionally followed by a burst slot. Arrival times are
// open-loop — precomputed from the rate alone, so a slow server faces
// mounting concurrency instead of an accommodating client.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Phase is one constant-rate slot of a schedule.
type Phase struct {
	Name    string  `json:"name"`
	RPS     float64 `json:"rps"`
	Seconds float64 `json:"seconds"`
}

// Schedule describes an open-loop arrival process.
type Schedule struct {
	// Phases run back to back; each contributes round(RPS*Seconds)
	// arrivals at evenly spaced slots.
	Phases []Phase
	// HotFraction in [0,1] is the fraction of arrivals that reuse the
	// shared cache-hot job spec (duplicate content address); the rest
	// are cache-cold unique specs. The split is exact per phase, with
	// seeded placement.
	HotFraction float64
	// Jitter in [0,1] displaces each arrival uniformly by up to
	// ±Jitter/2 of the mean gap (seeded, deterministic). Arrival
	// order within a phase is preserved for any Jitter <= 1.
	Jitter float64
	// Seed drives jitter and hot/cold placement; it also derives the
	// cold specs' simulation seeds, so a fixed seed replays the exact
	// same traffic.
	Seed int64
}

// Arrival is one synthesized request.
type Arrival struct {
	// At is the offset from the start of the run.
	At time.Duration
	// Phase indexes Schedule.Phases.
	Phase int
	// Hot marks a cache-hot (duplicate-spec) arrival.
	Hot bool
	// Seq is the global arrival index (cold spec seeds derive from it).
	Seq int
}

// Ramp builds the invitro-style stepped schedule: constant-rate slots
// of slot duration each, from start RPS to target RPS in increments
// of step. A non-positive step yields the single starting slot.
func Ramp(start, step, target float64, slot time.Duration) []Phase {
	var phases []Phase
	for rps := start; ; rps += step {
		if rps > target {
			break
		}
		phases = append(phases, Phase{
			Name:    fmt.Sprintf("rps%g", rps),
			RPS:     rps,
			Seconds: slot.Seconds(),
		})
		if step <= 0 {
			break
		}
	}
	return phases
}

// WithBurst appends a burst slot to a schedule.
func WithBurst(phases []Phase, burstRPS float64, burst time.Duration) []Phase {
	if burstRPS <= 0 || burst <= 0 {
		return phases
	}
	return append(phases, Phase{
		Name:    fmt.Sprintf("burst%g", burstRPS),
		RPS:     burstRPS,
		Seconds: burst.Seconds(),
	})
}

// Validate checks the schedule.
func (s Schedule) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("load: schedule has no phases")
	}
	for i, p := range s.Phases {
		if p.RPS <= 0 {
			return fmt.Errorf("load: phase %d (%s): RPS must be positive", i, p.Name)
		}
		if p.Seconds <= 0 {
			return fmt.Errorf("load: phase %d (%s): duration must be positive", i, p.Name)
		}
	}
	if s.HotFraction < 0 || s.HotFraction > 1 {
		return fmt.Errorf("load: hot fraction %g outside [0,1]", s.HotFraction)
	}
	if s.Jitter < 0 || s.Jitter > 1 {
		return fmt.Errorf("load: jitter %g outside [0,1]", s.Jitter)
	}
	return nil
}

// Requests returns the total arrival count of the schedule.
func (s Schedule) Requests() int {
	n := 0
	for _, p := range s.Phases {
		n += phaseCount(p)
	}
	return n
}

// Duration returns the schedule's total length.
func (s Schedule) Duration() time.Duration {
	var secs float64
	for _, p := range s.Phases {
		secs += p.Seconds
	}
	return time.Duration(secs * float64(time.Second))
}

func phaseCount(p Phase) int {
	return int(p.RPS*p.Seconds + 0.5)
}

// Arrivals synthesizes the full arrival sequence: deterministic for a
// fixed seed, sorted by time, with exactly round(RPS*Seconds)
// arrivals and an exact hot/cold split per phase.
func (s Schedule) Arrivals() ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var out []Arrival
	var phaseStart float64 // seconds
	seq := 0
	for pi, p := range s.Phases {
		n := phaseCount(p)
		if n == 0 {
			phaseStart += p.Seconds
			continue
		}
		gap := p.Seconds / float64(n)
		// Hot placement: an exact count of hot slots, shuffled by the
		// seeded rng so hot and cold interleave differently per seed.
		hotCount := int(s.HotFraction*float64(n) + 0.5)
		hot := make([]bool, n)
		for _, idx := range rng.Perm(n)[:hotCount] {
			hot[idx] = true
		}
		for i := 0; i < n; i++ {
			// Centered slots keep jittered arrivals inside the phase
			// and in order for any Jitter <= 1.
			at := phaseStart + (float64(i)+0.5)*gap
			if s.Jitter > 0 {
				at += (rng.Float64() - 0.5) * s.Jitter * gap
			}
			out = append(out, Arrival{
				At:    time.Duration(at * float64(time.Second)),
				Phase: pi,
				Hot:   hot[i],
				Seq:   seq,
			})
			seq++
		}
		phaseStart += p.Seconds
	}
	return out, nil
}
