package iq

import (
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/testkit/flow"
)

// exactOPTFlow is the IQ optimum as a single min-cost max-flow on the
// time-expanded network: each queue is a capacity-b chain of slot nodes,
// all feeding a per-slot service node of capacity one. It is ExactOPT's
// earlier formulation, kept as the independent reference that
// FuzzIQOptMatchesFlow and BenchmarkExactOPT compare the greedy against.
func exactOPTFlow(m, b int, seq packet.Sequence, slots int) (int64, error) {
	if m < 1 || b < 1 {
		return 0, fmt.Errorf("iq: need m >= 1 queues of capacity >= 1, got m=%d b=%d", m, b)
	}
	if err := seq.Validate(1, m); err != nil {
		return 0, fmt.Errorf("iq: bad sequence: %w", err)
	}
	if slots <= 0 {
		slots = seq.Horizon()
	}
	// Node layout: 0 = source, 1 = sink, per (queue, slot) an in/out
	// pair, per slot a service node, then one node per packet.
	base := 2
	qIn := func(j, t int) int { return base + 2*(j*slots+t) }
	qOut := func(j, t int) int { return base + 2*(j*slots+t) + 1 }
	svcBase := base + 2*m*slots
	svc := func(t int) int { return svcBase + t }
	pktBase := svcBase + slots
	n := pktBase + len(seq)
	mcmf := flow.NewMCMF(n)
	for t := 0; t < slots; t++ {
		mcmf.AddEdge(svc(t), 1, 1, 0)
		for j := 0; j < m; j++ {
			mcmf.AddEdge(qIn(j, t), qOut(j, t), int64(b), 0)
			mcmf.AddEdge(qOut(j, t), svc(t), 1, 0)
			if t+1 < slots {
				mcmf.AddEdge(qOut(j, t), qIn(j, t+1), int64(b), 0)
			}
		}
	}
	for k, p := range seq {
		if p.Arrival >= slots {
			continue
		}
		mcmf.AddEdge(0, pktBase+k, 1, -p.Value)
		mcmf.AddEdge(pktBase+k, qIn(p.Out, p.Arrival), 1, 0)
	}
	_, benefit := mcmf.MaxBenefit(0, 1)
	return benefit, nil
}
