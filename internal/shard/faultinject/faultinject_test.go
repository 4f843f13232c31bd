package faultinject

import (
	"testing"
	"time"
)

// TestScheduleDeterminism: two injectors with the same spec must draw the
// identical plan sequence — chaotic runs replay exactly.
func TestScheduleDeterminism(t *testing.T) {
	a := New(7, 0.1, 0.1, 0.3, 0.2)
	b := New(7, 0.1, 0.1, 0.3, 0.2)
	for i := 0; i < 200; i++ {
		pa, pb := a.Next(), b.Next()
		if pa != pb {
			t.Fatalf("plan %d diverged: %+v vs %+v", i, pa, pb)
		}
	}
}

func TestScheduleMixesActions(t *testing.T) {
	in := New(7, 0.1, 0.1, 0.3, 0.2)
	counts := map[Action]int{}
	for i := 0; i < 500; i++ {
		counts[in.Next().Action]++
	}
	for _, a := range []Action{None, Kill, Hang, Delay, Corrupt} {
		if counts[a] == 0 {
			t.Errorf("action %v never drawn in 500 plans", a)
		}
	}
}

func TestDegenerateProbabilities(t *testing.T) {
	kill := New(1, 1, 0, 0, 0)
	for i := 0; i < 20; i++ {
		if p := kill.Next(); p.Action != Kill {
			t.Fatalf("plan %d: %v, want kill", i, p.Action)
		}
	}
	none := New(1, 0, 0, 0, 0)
	for i := 0; i < 20; i++ {
		if p := none.Next(); p.Action != None {
			t.Fatalf("plan %d: %v, want none", i, p.Action)
		}
	}
}

func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector
	if p := in.Next(); p != (Plan{}) {
		t.Errorf("nil injector drew %+v", p)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("seed=7,kill=0.05,hang=0.02,delay=0.2,corrupt=0.1,maxdelayms=20")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := New(7, 0.05, 0.02, 0.2, 0.1)
	want.maxDelay = 20 * time.Millisecond
	for i := 0; i < 100; i++ {
		if got, exp := in.Next(), want.Next(); got != exp {
			t.Fatalf("plan %d: parsed spec draws %+v, equivalent New draws %+v", i, got, exp)
		}
	}
}

func TestParseSpecEmptyDisablesChaos(t *testing.T) {
	in, err := ParseSpec("  ")
	if err != nil {
		t.Fatalf("ParseSpec(blank): %v", err)
	}
	if in != nil {
		t.Error("blank spec built an injector")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"kill", "kill=2", "kill=-0.1", "kill=x",
		"seed=abc", "maxdelayms=-5", "unknown=1",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", spec)
		}
	}
}

// TestDelayBounded: delay plans respect the configured cap.
func TestDelayBounded(t *testing.T) {
	in := New(3, 0, 0, 1, 0)
	in.maxDelay = 5 * time.Millisecond
	for i := 0; i < 100; i++ {
		p := in.Next()
		if p.Action != Delay {
			t.Fatalf("plan %d: %v, want delay", i, p.Action)
		}
		if p.Delay < 0 || p.Delay > 5*time.Millisecond {
			t.Fatalf("plan %d: delay %v out of [0, 5ms]", i, p.Delay)
		}
	}
}
