package retry

import (
	"math/rand"
	"testing"
	"time"
)

func TestDelayScheduleBoundedAndJittered(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 9; i++ {
		want := p.BaseDelay << (i - 1)
		if want > p.MaxDelay {
			want = p.MaxDelay
		}
		for trial := 0; trial < 100; trial++ {
			d := p.Delay(i, rng)
			if d < want/2 || d > want {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", i, d, want/2, want)
			}
		}
	}
	if d := p.Delay(0, rng); d != 0 {
		t.Fatalf("Delay(0) = %v, want 0", d)
	}
	if d := (Policy{}).Delay(3, rng); d != 0 {
		t.Fatalf("zero-policy Delay = %v, want 0", d)
	}
}

func TestDelayJitterVaries(t *testing.T) {
	p := Policy{BaseDelay: time.Second, MaxDelay: time.Minute}
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for trial := 0; trial < 50; trial++ {
		seen[p.Delay(3, rng)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("50 jittered delays collapsed to %d distinct values — not jittered", len(seen))
	}
}
