package symbol

import (
	"fmt"
	"sync"
	"testing"
)

func TestEmptyIsNone(t *testing.T) {
	if Intern("") != None {
		t.Fatalf("Intern(\"\") = %d, want None", Intern(""))
	}
	if Str(None) != "" {
		t.Fatalf("Str(None) = %q, want empty", Str(None))
	}
}

func TestRoundTrip(t *testing.T) {
	values := []string{"john", "mary", "macdonald", "7 portree", "crofter"}
	ids := make([]ID, len(values))
	for i, v := range values {
		ids[i] = Intern(v)
	}
	for i, v := range values {
		if got := Intern(v); got != ids[i] {
			t.Errorf("Intern(%q) not stable: %d then %d", v, ids[i], got)
		}
		if got := Str(ids[i]); got != v {
			t.Errorf("Str(%d) = %q, want %q", ids[i], got, v)
		}
		if id, ok := Lookup(v); !ok || id != ids[i] {
			t.Errorf("Lookup(%q) = %d,%v want %d,true", v, id, ok, ids[i])
		}
	}
}

func TestUnknownIDResolvesEmpty(t *testing.T) {
	if got := Str(ID(1 << 30)); got != "" {
		t.Fatalf("Str(huge) = %q, want empty", got)
	}
	if Valid(ID(1 << 30)) {
		t.Fatal("Valid(huge) = true")
	}
}

// TestConcurrentIntern hammers the table from many goroutines with the
// calls a serving process mixes: Intern of strings seen before and of
// strings nobody has interned yet (a flush), Lookup of both kinds and of
// strings that never get interned (the search path), and Str. Run with
// -race this guards the read-lock/write-lock split of the ids map and the
// snapshot-publishing protocol.
func TestConcurrentIntern(t *testing.T) {
	const workers = 8
	const perWorker = 500
	seen := make([]ID, perWorker/2)
	for i := range seen {
		seen[i] = Intern(fmt.Sprintf("seen-%d", i))
	}
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, perWorker)
			for i := 0; i < perWorker; i++ {
				// Overlapping value universes force both the hit and the
				// insert path, and the re-check between the two locks.
				v := fmt.Sprintf("concurrent-%d", i%(perWorker/2))
				ids[w][i] = Intern(v)
				if got := Str(ids[w][i]); got != v {
					t.Errorf("Str after Intern(%q) = %q", v, got)
					return
				}
				if id, ok := Lookup(v); !ok || id != ids[w][i] {
					t.Errorf("Lookup after Intern(%q) = %d,%v want %d,true", v, id, ok, ids[w][i])
					return
				}
				j := (i + w) % len(seen)
				sv := fmt.Sprintf("seen-%d", j)
				if id := Intern(sv); id != seen[j] {
					t.Errorf("Intern(%q) = %d, interned as %d before the workers started", sv, id, seen[j])
					return
				}
				if id, ok := Lookup(sv); !ok || id != seen[j] {
					t.Errorf("Lookup(%q) = %d,%v want %d,true", sv, id, ok, seen[j])
					return
				}
				if id, ok := Lookup(fmt.Sprintf("never-%d-%d", w, i)); ok {
					t.Errorf("Lookup of a string nobody interned = %d,true", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got id %d for value %d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}
