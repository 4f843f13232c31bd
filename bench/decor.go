package main

import (
	"math/rand"

	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// The decorators below are how every layer is measured from outside: each
// wraps a value the program already accepts through an interface or a
// function type, times the calls that cross the boundary into a timer, and
// forwards everything else untouched. They exist only in traced passes; an
// untraced pass hands the program the bare values.

// timedGen times packet.Generator.Generate; items are packets produced.
type timedGen struct {
	packet.Generator
	m *timer
}

func (g timedGen) Generate(rng *rand.Rand, inputs, outputs, slots int) packet.Sequence {
	t0 := g.m.start()
	seq := g.Generator.Generate(rng, inputs, outputs, slots)
	g.m.stop(t0, int64(len(seq)))
	return seq
}

// timedStream times an ArrivalStream's Peek and Next; items are packets
// consumed. Both calls can trigger a window refill, so both are timed.
type timedStream struct {
	s packet.ArrivalStream
	m *timer
}

func (s *timedStream) Peek() (packet.Packet, bool) {
	t0 := s.m.start()
	p, ok := s.s.Peek()
	s.m.stop(t0, 0)
	return p, ok
}

func (s *timedStream) Next() (packet.Packet, bool) {
	t0 := s.m.start()
	p, ok := s.s.Next()
	n := int64(0)
	if ok {
		n = 1
	}
	s.m.stop(t0, n)
	return p, ok
}

func (s *timedStream) Err() error { return s.s.Err() }

// timedJudge times ratio.Judge.Judge; items are packets judged.
type timedJudge struct {
	j ratio.Judge
	m *timer
}

func (j timedJudge) Judge(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
	t0 := j.m.start()
	v, err := j.j.Judge(cfg, seq)
	j.m.stop(t0, int64(len(seq)))
	return v, err
}

// timedJudges decorates a factory: every judge it mints reports into m.
func timedJudges(f ratio.JudgeFactory, m *timer) ratio.JudgeFactory {
	return func() ratio.Judge { return timedJudge{f(), m} }
}

// timedAlg times a scalar policy run (engine plus policy); items are
// sequences run.
func timedAlg(a ratio.Alg, m *timer) ratio.Alg {
	return func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
		t0 := m.start()
		v, err := a(cfg, seq)
		m.stop(t0, 1)
		return v, err
	}
}

// timedFleet decorates a fleet factory around the minted alg, so the
// concrete policy type the fleet picks its kernel from is untouched; items
// are switch-slots stepped (sequences × arrival slots).
func timedFleet(f ratio.FleetAlgFactory, m *timer) ratio.FleetAlgFactory {
	return func() ratio.FleetAlg {
		a := f()
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			t0 := m.start()
			v, err := a(cfg, seqs)
			m.stop(t0, int64(len(seqs))*int64(cfg.Slots))
			return v, err
		}
	}
}

// idleCIOQPolicy is what the shipped CIOQ policies are: a policy the
// engine may jump idle and quiescent stretches for.
type idleCIOQPolicy interface {
	switchsim.CIOQPolicy
	switchsim.IdleAdvancer
}

// idleCrossbarPolicy is idleCIOQPolicy for crossbars.
type idleCrossbarPolicy interface {
	switchsim.CrossbarPolicy
	switchsim.IdleAdvancer
}

// timedCIOQ times Schedule and forwards the rest, IdleAdvance included:
// the engines take their event-driven fast path only for policies that
// implement IdleAdvancer, so a decorator without it would knock every run
// onto the dense path and measure a different program. Admit is forwarded
// untimed — at a million calls a pass the clock reads would cost more than
// the admissions.
type timedCIOQ struct {
	idleCIOQPolicy
	m *timer
}

func (p timedCIOQ) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	t0 := p.m.start()
	tr := p.idleCIOQPolicy.Schedule(sw, slot, cycle)
	p.m.stop(t0, int64(len(tr)))
	return tr
}

// timedCrossbar times both subphases into one timer.
type timedCrossbar struct {
	idleCrossbarPolicy
	m *timer
}

func (p timedCrossbar) InputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	t0 := p.m.start()
	tr := p.idleCrossbarPolicy.InputSubphase(sw, slot, cycle)
	p.m.stop(t0, int64(len(tr)))
	return tr
}

func (p timedCrossbar) OutputSubphase(sw *switchsim.Crossbar, slot, cycle int) []switchsim.Transfer {
	t0 := p.m.start()
	tr := p.idleCrossbarPolicy.OutputSubphase(sw, slot, cycle)
	p.m.stop(t0, int64(len(tr)))
	return tr
}
