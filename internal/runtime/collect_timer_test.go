package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/frame"
)

// TestCollectTimeoutsRaceDelivery runs concurrent Collect calls with
// 1 ms deadlines against a feeder whose frames land around those
// deadlines, so timers expire as results arrive. A recycled timer must
// never carry a stale expiry into its next Collect — every timeout took
// at least its deadline — and every fed frame is collected exactly
// once.
func TestCollectTimeoutsRaceDelivery(t *testing.T) {
	const frames, collectors = 300, 4
	sess, err := NewSession(gainGraph(), SessionOptions{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var (
		mu   sync.Mutex
		seen = make(map[int64]int)
		got  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < frames && !stop.Load() {
				start := time.Now()
				res, err := sess.Collect(time.Millisecond)
				switch {
				case err == nil:
					mu.Lock()
					seen[res.Seq]++
					mu.Unlock()
					for _, ws := range res.Outputs {
						frame.ReleaseList(ws)
					}
					got.Add(1)
				case errors.Is(err, ErrCollectTimeout):
					if el := time.Since(start); el < time.Millisecond {
						t.Errorf("Collect timed out after %v, before its 1ms deadline: a stale timer value", el)
						stop.Store(true)
					}
				default:
					t.Errorf("collect: %v", err)
					stop.Store(true)
				}
			}
		}()
	}
	var feedErr error
	for f := 0; f < frames && !stop.Load(); f++ {
		if _, feedErr = sess.Feed(nil); feedErr != nil {
			break
		}
		// Uneven gaps, some near the deadline, so deliveries and
		// expiries interleave every way.
		time.Sleep(time.Duration(f%7) * 150 * time.Microsecond)
	}
	if feedErr != nil {
		stop.Store(true)
	}
	wg.Wait()
	if feedErr != nil {
		t.Fatalf("feed: %v", feedErr)
	}
	if t.Failed() {
		return
	}
	if len(seen) != frames {
		t.Errorf("collected %d distinct frames, fed %d", len(seen), frames)
	}
	for seq, n := range seen {
		if n != 1 || seq < 0 || seq >= frames {
			t.Errorf("frame %d collected %d times", seq, n)
		}
	}
}

// TestReleasedTimerHoldsNoStaleValue: a timer that expired unread is
// drained when released, so whoever acquires it next waits its own
// deadline.
func TestReleasedTimerHoldsNoStaleValue(t *testing.T) {
	for i := 0; i < 20; i++ {
		tm := AcquireTimer(time.Nanosecond)
		time.Sleep(200 * time.Microsecond) // expired, value unread
		ReleaseTimer(tm, false)
		next := AcquireTimer(time.Hour)
		select {
		case <-next.C:
			t.Fatal("a reacquired timer delivered the previous deadline's value")
		default:
		}
		ReleaseTimer(next, false)
	}
}

// TestCollectTimerAllocFree pins the deadline at zero allocations: a
// warm Collect with a timeout allocates no more than one without.
func TestCollectTimerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { ReleaseTimer(AcquireTimer(time.Hour), false) }); n != 0 {
		t.Errorf("acquiring and releasing a warm timer allocates %v times, want 0", n)
	}
	const runs = 20
	sess, err := NewSession(gainGraph(), SessionOptions{MaxInFlight: 2 * (runs + 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for f := 0; f < 2*(runs+1); f++ {
		if _, err := sess.Feed(nil); err != nil {
			t.Fatal(err)
		}
	}
	for sess.Completed() < 2*(runs+1) {
		time.Sleep(time.Millisecond)
	}
	collect := func(timeout time.Duration) float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, err := sess.Collect(timeout); err != nil {
				t.Fatal(err)
			}
		})
	}
	without := collect(0)
	with := collect(time.Hour)
	if with != without {
		t.Errorf("a warm Collect allocates %v times with a timeout, %v without", with, without)
	}
}
