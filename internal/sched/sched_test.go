package sched

import (
	"errors"
	"fmt"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
)

func testRunner(t *testing.T, retries int, noFallback bool) (*Runner, *faults.Recovery, *gpusim.Device) {
	t.Helper()
	dev := gpusim.MustNew(gpusim.K20Config())
	rec := &faults.Recovery{}
	return &Runner{
		Ledger: NewLedger(dev, nil), Rec: rec,
		Policy:         Policy{Retries: retries, BackoffNs: 10},
		NoHostFallback: noFallback,
	}, rec, dev
}

// fakeBatch scripts a Batch: it fails with the scripted errors in order,
// then succeeds. size controls splitting: a batch of size ≥ 2 halves.
type fakeBatch struct {
	errs     []error
	size     int
	fell     *int
	attempts *int
	// persistent, when set, overrides errs for every attempt (split halves
	// inherit it down to size 1, which succeeds).
	persistent error
	minFail    int // halves of at least this size keep failing
}

func (b *fakeBatch) Attempt() error {
	*b.attempts++
	if b.persistent != nil && b.size >= b.minFail {
		return b.persistent
	}
	if b.persistent != nil {
		return nil
	}
	if len(b.errs) == 0 {
		return nil
	}
	err := b.errs[0]
	b.errs = b.errs[1:]
	return err
}

func (b *fakeBatch) Split() (Batch, Batch, bool) {
	if b.size < 2 {
		return nil, nil, false
	}
	half := b.size / 2
	return &fakeBatch{size: half, fell: b.fell, attempts: b.attempts, persistent: b.persistent, minFail: b.minFail},
		&fakeBatch{size: b.size - half, fell: b.fell, attempts: b.attempts, persistent: b.persistent, minFail: b.minFail},
		true
}

func (b *fakeBatch) Fallback() { *b.fell++ }

func (b *fakeBatch) WrapErr(retries int, last error) error {
	return fmt.Errorf("failed after %d retries (%v): %w", retries, last, ErrRetryBudget)
}

// TestRunnerRetryClassification: transient faults burn retries, are
// classified by kind, and charge exponential backoff on the virtual clock.
func TestRunnerRetryClassification(t *testing.T) {
	run, rec, dev := testRunner(t, 3, false)
	var fell, attempts int
	b := &fakeBatch{errs: []error{gpusim.ErrTransferFault, gpusim.ErrLaunchFault},
		size: 4, fell: &fell, attempts: &attempts}
	if err := run.Run(b); err != nil {
		t.Fatal(err)
	}
	if rec.TransferRetries != 1 || rec.KernelRetries != 1 || rec.OOMRetries != 0 {
		t.Fatalf("retry classification wrong: %s", rec)
	}
	// Attempt 0 backoff 10, attempt 1 backoff 20.
	if rec.BackoffNs != 30 || dev.HostTime() != 30 {
		t.Fatalf("backoff: recorded %g, host clock %g, want 30", rec.BackoffNs, dev.HostTime())
	}
	if fell != 0 || attempts != 3 {
		t.Fatalf("fallbacks %d attempts %d, want 0, 3", fell, attempts)
	}
}

// TestRunnerNonRetryableFatal: programming errors pass straight through.
func TestRunnerNonRetryableFatal(t *testing.T) {
	run, rec, _ := testRunner(t, 3, false)
	boom := errors.New("boom")
	var fell, attempts int
	err := run.Run(&fakeBatch{errs: []error{boom}, size: 2, fell: &fell, attempts: &attempts})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if rec.Any() || fell != 0 {
		t.Fatalf("non-retryable error triggered recovery: %s", rec)
	}
}

// TestRunnerOOMSplits: persistent OOM splits recursively until the halves
// fit, each node burning a fresh retry budget first.
func TestRunnerOOMSplits(t *testing.T) {
	run, rec, _ := testRunner(t, 1, false)
	var fell, attempts int
	b := &fakeBatch{size: 4, fell: &fell, attempts: &attempts,
		persistent: gpusim.ErrOutOfDeviceMemory, minFail: 2}
	if err := run.Run(b); err != nil {
		t.Fatal(err)
	}
	// Nodes of size 4, 2, 2 each retry once then split; the four size-1
	// leaves succeed.
	if rec.OOMSplits != 3 || rec.OOMRetries != 3 {
		t.Fatalf("splits %d retries %d, want 3, 3 (%s)", rec.OOMSplits, rec.OOMRetries, rec)
	}
	if fell != 0 {
		t.Fatalf("split recovery fell back %d times", fell)
	}
}

// TestRunnerHostFallback: an unsplittable batch with a persistent fault
// degrades to the host exactly once.
func TestRunnerHostFallback(t *testing.T) {
	run, rec, _ := testRunner(t, 2, false)
	var fell, attempts int
	b := &fakeBatch{size: 1, fell: &fell, attempts: &attempts,
		persistent: gpusim.ErrTransferFault, minFail: 0}
	if err := run.Run(b); err != nil {
		t.Fatal(err)
	}
	if fell != 1 || rec.HostFallbacks != 1 || rec.TransferRetries != 2 {
		t.Fatalf("fell %d, %s; want one fallback after two retries", fell, rec)
	}
}

// TestRunnerNoHostFallbackTyped: with the fallback disabled the batch's
// wrapped error surfaces and wraps ErrRetryBudget.
func TestRunnerNoHostFallbackTyped(t *testing.T) {
	run, _, _ := testRunner(t, 2, true)
	var fell, attempts int
	b := &fakeBatch{size: 1, fell: &fell, attempts: &attempts,
		persistent: gpusim.ErrLaunchFault, minFail: 0}
	err := run.Run(b)
	if err == nil || !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("got %v, want ErrRetryBudget wrap", err)
	}
	if fell != 0 {
		t.Fatal("NoHostFallback still fell back")
	}
}

// fakePass scripts a Pass.
type fakePass struct {
	failures                            int
	fatal                               error
	attempts, resets, settles, degrades int
}

func (p *fakePass) Attempt() error {
	p.attempts++
	if p.fatal != nil {
		return p.fatal
	}
	if p.attempts <= p.failures {
		return gpusim.ErrLaunchFault
	}
	return nil
}
func (p *fakePass) Reset()  { p.resets++ }
func (p *fakePass) Settle() { p.settles++ }
func (p *fakePass) Degrade() error {
	p.degrades++
	return nil
}

// TestRunPassRestartsThenSucceeds: transient pass faults restart with
// backoff and eventually succeed in place.
func TestRunPassRestartsThenSucceeds(t *testing.T) {
	run, rec, _ := testRunner(t, 3, false)
	p := &fakePass{failures: 2}
	if err := run.RunPass(p); err != nil {
		t.Fatal(err)
	}
	if rec.Restarts != 2 || p.resets != 2 || p.settles != 2 || p.degrades != 0 {
		t.Fatalf("restarts=%d resets=%d settles=%d degrades=%d", rec.Restarts, p.resets, p.settles, p.degrades)
	}
}

// TestRunPassDegrades: persistent pass faults exhaust the restart budget
// and hand off to Degrade.
func TestRunPassDegrades(t *testing.T) {
	run, rec, _ := testRunner(t, 2, false)
	p := &fakePass{failures: 100}
	if err := run.RunPass(p); err != nil {
		t.Fatal(err)
	}
	if p.degrades != 1 || p.attempts != 3 {
		t.Fatalf("degrades=%d attempts=%d, want 1 degrade after 3 attempts", p.degrades, p.attempts)
	}
	if rec.Restarts != 3 {
		t.Fatalf("restarts=%d, want 3 (two restarts + the degrade)", rec.Restarts)
	}
}

// TestRunPassFatal: non-retryable pass errors reset, then surface.
func TestRunPassFatal(t *testing.T) {
	run, _, _ := testRunner(t, 2, false)
	boom := errors.New("boom")
	p := &fakePass{fatal: boom}
	if err := run.RunPass(p); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if p.resets != 1 || p.settles != 0 {
		t.Fatalf("resets=%d settles=%d, want reset without settle", p.resets, p.settles)
	}
}

// TestResolveKnobs pins the sentinel semantics of the retry knobs.
func TestResolveKnobs(t *testing.T) {
	if got := ResolveRetries(0); got != DefaultFaultRetries {
		t.Fatalf("ResolveRetries(0)=%d", got)
	}
	if got := ResolveRetries(-1); got != 0 {
		t.Fatalf("ResolveRetries(-1)=%d", got)
	}
	if got := ResolveRetries(7); got != 7 {
		t.Fatalf("ResolveRetries(7)=%d", got)
	}
	if got := ResolveBackoff(0); got != DefaultRetryBackoffNs {
		t.Fatalf("ResolveBackoff(0)=%g", got)
	}
	if got := ResolveBackoff(5); got != 5 {
		t.Fatalf("ResolveBackoff(5)=%g", got)
	}
}

// TestRetryableFault pins the fault taxonomy.
func TestRetryableFault(t *testing.T) {
	for _, err := range []error{gpusim.ErrDeviceFault, gpusim.ErrTransferFault,
		gpusim.ErrLaunchFault, gpusim.ErrOutOfDeviceMemory} {
		if !RetryableFault(err) {
			t.Fatalf("%v should be retryable", err)
		}
	}
	if RetryableFault(errors.New("boom")) || RetryableFault(nil) {
		t.Fatal("non-fault errors must not be retryable")
	}
}

// TestStopwatch: laps and totals are non-negative and ordered.
func TestStopwatch(t *testing.T) {
	sw := NewStopwatch()
	a := sw.Lap()
	b := sw.Lap()
	total := sw.Total()
	if a < 0 || b < 0 || total < a+b {
		t.Fatalf("laps %d, %d, total %d", a, b, total)
	}
}
