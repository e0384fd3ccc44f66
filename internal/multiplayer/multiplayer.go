// Package multiplayer extends the single-player model to the Sec 8
// discussion: several adaptive players share one bottleneck link. The link
// capacity follows a trace and is split equally among players that are
// actively downloading (processor sharing, the standard TCP-fairness
// approximation); players that pause with a full buffer release their
// share, which is precisely the interaction that makes multi-player
// adaptation unstable and that FESTIVE was designed around. Each player is
// a sim.Session, so the buffer dynamics, startup policies and abandonment
// are the single-player simulator's own; this package only moves time and
// bytes between events, and measures fairness, efficiency and stability.
package multiplayer

import (
	"fmt"
	"math"
	"sort"

	"mpcdash/internal/abr"
	"mpcdash/internal/model"
	"mpcdash/internal/predictor"
	"mpcdash/internal/sim"
	"mpcdash/internal/trace"
)

// Player binds one controller + predictor pair to a session slot.
type Player struct {
	Name       string
	Controller abr.Controller
	Predictor  predictor.Predictor
	// StartOffset delays the player's arrival (seconds), modelling viewers
	// joining at different times.
	StartOffset float64
}

// Result is the outcome for one player plus the cross-player metrics.
type Result struct {
	Sessions []*model.SessionResult // one per player, in input order

	JainIndex float64 // Jain fairness index of average bitrates
	// Utilization is the delivered kilobits ÷ the link's capacity over the
	// time at least one player has arrived and not yet received its last
	// chunk. Buffer-full waits that leave the link idle lower it.
	Utilization float64
	Instability float64 // mean per-player bitrate switches per chunk
}

// player is one session's place on the shared link.
type player struct {
	s    sim.Session
	c    *model.ChunkRecord // chunk in transfer, nil while idle
	left float64            // kilobits of c not yet delivered
	dl   float64            // seconds c has been in transfer
	next float64            // time of the next decision while idle
	done bool               // the session has ended
	last float64            // time its latest chunk was delivered
}

// Run plays one sim.Session per player over the shared link until every
// session has ended. Between events each of the n active downloaders
// receives 1/n of the trace's volume, so downloads finish at exact times;
// the events are arrivals, download completions and the ends of
// buffer-full waits, and simultaneous events are handled in player order.
// With one player the result is sim.Run's.
func Run(m *model.Manifest, link *trace.Trace, players []Player, cfg sim.Config) (*Result, error) {
	if len(players) == 0 {
		return nil, fmt.Errorf("multiplayer: no players")
	}
	if link.MaxRate() <= 0 {
		return nil, fmt.Errorf("multiplayer: link %q is dead", link.Name)
	}
	ps := make([]player, len(players))
	for i, p := range players {
		s, err := sim.NewSession(m, p.Controller, p.Predictor, cfg)
		if err != nil {
			return nil, fmt.Errorf("multiplayer: %w", err)
		}
		ps[i] = player{s: s, next: p.StartOffset}
	}

	now := 0.0
	for {
		// Decisions due now start their downloads.
		for i := range ps {
			p := &ps[i]
			if p.done || p.c != nil || p.next > now {
				continue
			}
			if p.c = p.s.Next(p.next); p.c == nil {
				p.done = true
				continue
			}
			p.c.SizeKbits = m.ChunkSize(p.c.Index, p.c.Level)
			p.left, p.dl = p.c.SizeKbits, 0
		}

		n, minLeft, wake := 0, math.Inf(1), math.Inf(1)
		for i := range ps {
			switch p := &ps[i]; {
			case p.c != nil:
				n++
				minLeft = min(minLeft, p.left)
			case !p.done:
				wake = min(wake, p.next)
			}
		}
		if n == 0 {
			if math.IsInf(wake, 1) {
				break
			}
			now = wake
			continue
		}

		// Advance to the next completion, or to the next decision if
		// that comes first; every active player gets the same volume.
		seg := link.DownloadTime(now, float64(n)*minLeft)
		end, got := now+seg, minLeft
		if end > wake {
			seg, end = wake-now, wake
			got = link.AverageRate(now, seg) * seg / float64(n)
		}
		now = end
		for i := range ps {
			p := &ps[i]
			if p.c == nil {
				continue
			}
			p.dl += seg
			if p.left -= got; p.left > 0 {
				continue
			}
			// Delivered: the next decision follows the download and the
			// wait on the session's own clock, StartTime + (dl + wait),
			// as sim's trace link keeps it.
			p.c.DownloadTime = p.dl
			wait := p.s.Account(p.c)
			p.next = max(p.c.StartTime+(p.dl+wait), now)
			p.c, p.last = nil, now
		}
	}

	res := &Result{Sessions: make([]*model.SessionResult, len(ps))}
	bitrates := make([]float64, len(ps))
	spans := make([][2]float64, len(ps))
	var delivered float64
	var switches, chunks int
	for i := range ps {
		sr := ps[i].s.Result()
		res.Sessions[i] = sr
		met := sr.ComputeMetrics(model.QIdentity)
		bitrates[i] = met.AvgBitrate
		switches += met.Switches
		chunks += len(sr.Chunks)
		for _, c := range sr.Chunks {
			delivered += c.SizeKbits
		}
		spans[i] = [2]float64{players[i].StartOffset, ps[i].last}
	}
	res.JainIndex = jain(bitrates)
	if capacity := volume(link, spans); capacity > 0 {
		res.Utilization = delivered / capacity
	}
	if chunks > 0 {
		res.Instability = float64(switches) / float64(chunks)
	}
	return res, nil
}

// volume returns the kilobits link can carry over the union of spans.
func volume(link *trace.Trace, spans [][2]float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var kbits float64
	reach := math.Inf(-1)
	for _, s := range spans {
		from := max(s[0], reach)
		if s[1] > from {
			kbits += link.AverageRate(from, s[1]-from) * (s[1] - from)
			reach = s[1]
		}
	}
	return kbits
}

// jain computes the Jain fairness index: (Σx)² / (n·Σx²), 1 for perfect
// equality, → 1/n for maximal skew.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 { //lint:allow floateq exact-zero divisor guard; epsilon would misclassify tiny allocations
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
