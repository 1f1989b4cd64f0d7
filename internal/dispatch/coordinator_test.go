package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expcache"
	"repro/internal/sim"
)

// fakeClock drives the coordinator's lazy lease expiry explicitly.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func testOptions(clk *fakeClock, ttl time.Duration, batch int) Options {
	return Options{LeaseTTL: ttl, Batch: batch, Now: clk.Now}
}

// testMatrix builds n synthetic matrix fingerprints (ascending by
// construction) and a valid encoded entry for each.
func testMatrix(t *testing.T, n int) ([]string, map[string][]byte) {
	t.Helper()
	fps := make([]string, n)
	entries := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		var fp sim.Fingerprint
		fp[0] = byte(i + 1)
		res := sim.Result{Workload: fmt.Sprintf("job%d", i), Cycles: int64(1000 + i)}
		data, err := expcache.EncodeEntry(fp, res)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp.String()
		entries[fps[i]] = data
	}
	return fps, entries
}

func newTestCoordinator(t *testing.T, fps []string, opts Options) (*Coordinator, *expcache.DirStore) {
	t.Helper()
	store := expcache.NewDirStore(filepath.Join(t.TempDir(), "cache"))
	c, err := NewCoordinator(Spec{Engine: sim.EngineVersion, Fingerprints: fps}, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, store
}

func TestLeaseExpiryRedispatch(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 3)
	c, _ := newTestCoordinator(t, fps, testOptions(clk, 10*time.Second, 3))

	l1 := c.Lease("w1")
	if len(l1.Fingerprints) != 3 {
		t.Fatalf("first lease got %d fingerprints, want 3", len(l1.Fingerprints))
	}
	// Everything is freshly leased: a second worker gets an empty lease.
	if l2 := c.Lease("w2"); len(l2.Fingerprints) != 0 || l2.Done {
		t.Fatalf("second lease should be empty, got %+v", l2)
	}
	// Past the deadline the lease expires and the work is re-dispatched.
	clk.Advance(11 * time.Second)
	l3 := c.Lease("w2")
	if len(l3.Fingerprints) != 3 {
		t.Fatalf("post-expiry lease got %d fingerprints, want all 3", len(l3.Fingerprints))
	}
	if _, err := c.Heartbeat("w1", l1.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat on expired lease: got %v, want ErrUnknownLease", err)
	}
	// The expired worker's late upload is still welcome.
	if _, err := c.Upload("w1", fps[0], entries[fps[0]]); err != nil {
		t.Fatalf("late upload after expiry: %v", err)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	fps, _ := testMatrix(t, 2)
	c, _ := newTestCoordinator(t, fps, testOptions(clk, 10*time.Second, 2))

	l := c.Lease("w1")
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second) // inside the TTL each time
		if _, err := c.Heartbeat("w1", l.ID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	// 40s of wall time has passed — far beyond one TTL — but the lease is
	// alive, so the pool stays empty for other workers.
	if l2 := c.Lease("w2"); len(l2.Fingerprints) != 0 {
		t.Fatalf("heartbeated lease was stolen: %+v", l2)
	}
}

func TestStragglerRedispatchQuietLeasesOnly(t *testing.T) {
	clk := newFakeClock()
	fps, _ := testMatrix(t, 2)
	c, _ := newTestCoordinator(t, fps, testOptions(clk, 12*time.Second, 2))

	l1 := c.Lease("w1")
	if len(l1.Fingerprints) != 2 {
		t.Fatalf("lease: %+v", l1)
	}
	// Fresh lease (full TTL remaining): not a steal candidate.
	if l2 := c.Lease("w2"); len(l2.Fingerprints) != 0 {
		t.Fatalf("stole from a fresh lease: %+v", l2)
	}
	// After >TTL/2 without a heartbeat the lease is quiet; a second
	// worker gets straggler cover before full expiry.
	clk.Advance(7 * time.Second)
	l3 := c.Lease("w2")
	if len(l3.Fingerprints) != 2 {
		t.Fatalf("quiet lease not re-dispatched: %+v", l3)
	}
	// maxLeasesPerJob caps the pile-on: a third worker gets nothing.
	if l4 := c.Lease("w3"); len(l4.Fingerprints) != 0 {
		t.Fatalf("third concurrent claim exceeded maxLeasesPerJob: %+v", l4)
	}
}

func TestUploadValidationAndConflicts(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 2)
	c, _ := newTestCoordinator(t, fps, testOptions(clk, 10*time.Second, 2))

	if _, err := c.Upload("w1", "zz", entries[fps[0]]); !errors.Is(err, ErrOutsideMatrix) {
		t.Fatalf("non-hex fingerprint: got %v, want ErrOutsideMatrix", err)
	}
	if _, err := c.Upload("w1", fps[0], []byte("{")); !errors.Is(err, expcache.ErrEntryUnparsable) {
		t.Fatalf("garbage upload: got %v, want ErrEntryUnparsable", err)
	}
	// A valid entry for a fingerprint outside the matrix.
	var foreign sim.Fingerprint
	foreign[0] = 0xee
	data, err := expcache.EncodeEntry(foreign, sim.Result{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("w1", foreign.String(), data); !errors.Is(err, ErrOutsideMatrix) {
		t.Fatalf("foreign upload: got %v, want ErrOutsideMatrix", err)
	}
	// Entry bytes whose embedded fingerprint disagrees with the URL's.
	if _, err := c.Upload("w1", fps[1], entries[fps[0]]); !errors.Is(err, expcache.ErrEntryFingerprint) {
		t.Fatalf("mismatched upload: got %v, want ErrEntryFingerprint", err)
	}

	if _, err := c.Upload("w1", fps[0], entries[fps[0]]); err != nil {
		t.Fatalf("first valid upload: %v", err)
	}
	// Identical duplicate: idempotent ack. Different bytes: conflict.
	if _, err := c.Upload("w1", fps[0], entries[fps[0]]); err != nil {
		t.Fatalf("identical duplicate: %v", err)
	}
	var fp0 sim.Fingerprint
	fp0[0] = 1
	other, err := expcache.EncodeEntry(fp0, sim.Result{Workload: "job0", Cycles: 9999})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("w1", fps[0], other); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting upload: got %v, want ErrConflict", err)
	}

	st := c.Status()
	if st.Done != 1 || st.Rejected != 4 {
		t.Fatalf("status after rejections: %+v (want done=1 rejected=4)", st)
	}
	if _, err := c.Upload("w1", fps[1], entries[fps[1]]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("matrix complete but Done not closed")
	}
	if l := c.Lease("w1"); !l.Done {
		t.Fatalf("lease after completion should say done, got %+v", l)
	}
}

func TestResumeFromPartialStore(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 3)
	dir := filepath.Join(t.TempDir(), "cache")
	store := expcache.NewDirStore(dir)
	// Pre-fill one valid entry, one corrupt one, and one foreign file.
	if err := store.PutEntry(fps[0], entries[fps[0]]); err != nil {
		t.Fatal(err)
	}
	if err := store.PutEntry(fps[1], []byte(`{"format":99}`)); err != nil {
		t.Fatal(err)
	}
	var foreign sim.Fingerprint
	foreign[0] = 0xcc
	fdata, err := expcache.EncodeEntry(foreign, sim.Result{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutEntry(foreign.String(), fdata); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(Spec{Engine: sim.EngineVersion, Fingerprints: fps}, store, testOptions(clk, 10*time.Second, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Resumed != 1 || st.Done != 1 {
		t.Fatalf("resume: %+v (want resumed=1 done=1: corrupt and foreign entries must not count)", st)
	}
	// Only the two missing fingerprints are dispatched (the corrupt one
	// is recomputed, overwriting the bad file).
	l := c.Lease("w1")
	if len(l.Fingerprints) != 2 || l.Fingerprints[0] != fps[1] || l.Fingerprints[1] != fps[2] {
		t.Fatalf("post-resume lease: %+v, want exactly [%s %s]", l, fps[1], fps[2])
	}
	for _, fp := range l.Fingerprints {
		if _, err := c.Upload("w1", fp, entries[fp]); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("matrix complete after resume + uploads, Done not closed")
	}

	// A second restart over the now-complete directory is born finished.
	c2, err := NewCoordinator(Spec{Engine: sim.EngineVersion, Fingerprints: fps}, expcache.NewDirStore(dir), testOptions(clk, 10*time.Second, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); !st.Complete || st.Resumed != 3 {
		t.Fatalf("restart over complete dir: %+v (want complete, resumed=3)", st)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("complete-at-construction coordinator must close Done immediately")
	}
}

// completeBy uploads every matrix entry as worker, requiring the last
// upload's ack (and only the last) to report the matrix done.
func completeBy(t *testing.T, c *Coordinator, worker string, fps []string, entries map[string][]byte) {
	t.Helper()
	for i, fp := range fps {
		done, err := c.Upload(worker, fp, entries[fp])
		if err != nil {
			t.Fatal(err)
		}
		if want := i == len(fps)-1; done != want {
			t.Fatalf("upload %d of %d acked done=%v, want %v", i+1, len(fps), done, want)
		}
	}
}

// TestIdlePollerToldDoneAtCompletion pins the finish race: worker A sits
// in a lease long-poll with nothing to lease while worker B's upload
// completes the matrix. A's poll must wake with done — no clock advance,
// no retry delay — and only then may the coordinator exit.
func TestIdlePollerToldDoneAtCompletion(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 2)
	// Once armed, the clock reports A's poll entering the coordinator. A
	// poll reads the clock first inside the critical section in which it
	// finds nothing to lease and takes the change channel it then waits
	// on, so B's upload, which needs the same lock, comes after that.
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	opts := testOptions(clk, 30*time.Second, 2)
	opts.Now = func() time.Time {
		if armed.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		return clk.Now()
	}
	c, _ := newTestCoordinator(t, fps, opts)
	if l := c.Lease("B"); len(l.Fingerprints) != 2 {
		t.Fatalf("B should hold the whole matrix, got %+v", l)
	}

	armed.Store(true)
	polled := make(chan Lease, 1)
	go func() { polled <- c.Poll(context.Background(), "A") }()
	select {
	case <-entered:
		armed.Store(false)
	case <-time.After(10 * time.Second):
		t.Fatal("A's long-poll never reached the coordinator")
	}

	completeBy(t, c, "B", fps, entries)
	select {
	case l := <-polled:
		if !l.Done {
			t.Fatalf("idle poller woke with %+v, want done", l)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("completion did not wake the idle long-poll")
	}
	if !c.Finished() {
		t.Fatal("both workers told, but the coordinator is not finished")
	}
}

// TestFinishedWaitsForEveryLiveWorker: the coordinator must not report
// itself ready to exit while a worker it heard from inside the last TTL
// has not been told the matrix is done.
func TestFinishedWaitsForEveryLiveWorker(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 2)
	c, _ := newTestCoordinator(t, fps, testOptions(clk, 30*time.Second, 2))
	c.see("C") // fetched the spec, has not asked for work yet
	c.Lease("B")
	if l := c.Lease("A"); l.Done || len(l.Fingerprints) != 0 {
		t.Fatalf("A should get an empty lease, got %+v", l)
	}
	completeBy(t, c, "B", fps, entries)
	if c.Finished() {
		t.Fatal("finished while A and C have not been told")
	}
	if l := c.Lease("A"); !l.Done {
		t.Fatalf("A's lease after completion: %+v, want done", l)
	}
	if c.Finished() {
		t.Fatal("finished while C has not been told")
	}
	if l := c.Lease("C"); !l.Done {
		t.Fatalf("C's lease after completion: %+v, want done", l)
	}
	if !c.Finished() {
		t.Fatal("every worker told, but the coordinator is not finished")
	}
}

// TestStragglerLearnsDone: a worker still computing a lease that another
// worker's uploads completed learns done from its next heartbeat or
// upload, even though its lease was retired at completion.
func TestStragglerLearnsDone(t *testing.T) {
	for _, via := range []string{"heartbeat", "upload"} {
		t.Run(via, func(t *testing.T) {
			clk := newFakeClock()
			fps, entries := testMatrix(t, 2)
			c, _ := newTestCoordinator(t, fps, testOptions(clk, 12*time.Second, 2))
			la := c.Lease("A")
			clk.Advance(7 * time.Second) // A's lease goes quiet: straggler cover
			if l := c.Lease("B"); len(l.Fingerprints) != 2 {
				t.Fatalf("B should cover A's quiet lease, got %+v", l)
			}
			completeBy(t, c, "B", fps, entries)
			if c.Finished() {
				t.Fatal("finished while straggler A, seen 7s ago, has not been told")
			}
			var done bool
			var err error
			if via == "heartbeat" {
				done, err = c.Heartbeat("A", la.ID)
			} else {
				done, err = c.Upload("A", fps[0], entries[fps[0]])
			}
			if err != nil || !done {
				t.Fatalf("straggler %s reply: done=%v err=%v, want done", via, done, err)
			}
			if !c.Finished() {
				t.Fatal("straggler told, but the coordinator is not finished")
			}
		})
	}
}

// TestKilledWorkerAgesOut: a worker that dies without a word holds the
// finished coordinator open for one lease TTL after it was last heard
// from, and no longer.
func TestKilledWorkerAgesOut(t *testing.T) {
	clk := newFakeClock()
	fps, entries := testMatrix(t, 2)
	const ttl = 12 * time.Second
	c, _ := newTestCoordinator(t, fps, testOptions(clk, ttl, 2))
	c.Lease("A") // A takes everything, then is killed
	clk.Advance(7 * time.Second)
	c.Lease("B")
	completeBy(t, c, "B", fps, entries)
	clk.Advance(ttl - 7*time.Second - time.Millisecond)
	if c.Finished() {
		t.Fatal("finished before the killed worker aged out")
	}
	clk.Advance(time.Millisecond)
	if !c.Finished() {
		t.Fatal("killed worker did not age out after one TTL")
	}
}

// TestProtocolFormatMismatchRefused: workers and coordinators of
// different protocol formats refuse each other at the spec check. A
// format-1 worker (retry_millis polling, heartbeats without a worker or
// a done reply) refuses this coordinator because its spec says format
// 2; this worker refuses a format-1 coordinator the same way.
func TestProtocolFormatMismatchRefused(t *testing.T) {
	fps, _ := testMatrix(t, 1)
	c, _ := newTestCoordinator(t, fps, testOptions(newFakeClock(), 10*time.Second, 1))
	if got := c.Spec().Format; got != SpecFormatVersion || got == 1 {
		t.Fatalf("coordinator advertises format %d, want %d (not 1)", got, SpecFormatVersion)
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, Spec{Format: 1, Engine: sim.EngineVersion, Fingerprints: fps})
	}))
	defer old.Close()
	err := RunWorker(old.URL, WorkerOptions{ID: "w"})
	if err == nil || !strings.Contains(err.Error(), "protocol format 1") {
		t.Fatalf("worker against a format-1 coordinator: %v, want a protocol format refusal", err)
	}
}
