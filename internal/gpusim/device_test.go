package gpusim

import (
	"errors"
	"testing"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{NumSMs: 1, CoresPerSM: 0, WarpSize: 32, ClockHz: 1e9, GlobalBandwidthBps: 1e9},
		{NumSMs: 1, CoresPerSM: 1, WarpSize: 32, ClockHz: 0, GlobalBandwidthBps: 1e9},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := New(K20Config()); err != nil {
		t.Fatalf("K20Config rejected: %v", err)
	}
}

func TestK20Shape(t *testing.T) {
	cfg := K20Config()
	if cfg.TotalCores() != 2496 {
		t.Fatalf("TotalCores = %d, want 2496 (paper, Section IV-B)", cfg.TotalCores())
	}
	if cfg.GlobalMemBytes != 5<<30 {
		t.Fatalf("GlobalMemBytes = %d, want 5 GiB", cfg.GlobalMemBytes)
	}
}

func TestMallocFree(t *testing.T) {
	d := MustNew(SmallConfig()) // 1 MB = 262,144 words
	b1, err := d.Malloc(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Len() != 100_000 || b1.Bytes() != 400_000 {
		t.Fatalf("buffer len=%d bytes=%d", b1.Len(), b1.Bytes())
	}
	if d.AllocatedBuffers() != 1 {
		t.Fatalf("live buffers = %d, want 1", d.AllocatedBuffers())
	}
	if free := d.FreeMemory(); free != 1<<20-400_000 {
		t.Fatalf("FreeMemory = %d", free)
	}
	// This exceeds the remaining memory.
	if _, err := d.Malloc(200_000); !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("over-allocation error = %v, want ErrOutOfDeviceMemory", err)
	}
	b1.Free()
	if d.FreeMemory() != 1<<20 {
		t.Fatalf("FreeMemory after free = %d", d.FreeMemory())
	}
	if d.AllocatedBuffers() != 0 {
		t.Fatalf("live buffers after free = %d", d.AllocatedBuffers())
	}
	// Now it fits.
	b2, err := d.Malloc(200_000)
	if err != nil {
		t.Fatal(err)
	}
	b2.Free()
}

func TestDoubleFreePanics(t *testing.T) {
	d := MustNew(SmallConfig())
	b := d.MustMalloc(10)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestUseAfterFreePanics(t *testing.T) {
	d := MustNew(SmallConfig())
	b := d.MustMalloc(10)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("Words() on freed buffer did not panic")
		}
	}()
	_ = b.Words()
}

func TestMallocNegative(t *testing.T) {
	d := MustNew(SmallConfig())
	if _, err := d.Malloc(-1); err == nil {
		t.Fatal("Malloc(-1) accepted")
	}
}

func TestCopyRoundTrip(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(1000)
	defer b.Free()
	src := make([]uint32, 1000)
	for i := range src {
		src[i] = uint32(i * 3)
	}
	if err := d.CopyH2D(b, 0, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 1000)
	if err := d.CopyD2H(dst, b, 0); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: got %d, want %d", i, dst[i], src[i])
		}
	}
	m := d.Metrics()
	if m.H2DBytes != 4000 || m.D2HBytes != 4000 {
		t.Fatalf("transfer bytes = %d/%d, want 4000/4000", m.H2DBytes, m.D2HBytes)
	}
	if m.H2DTimeNs <= 0 || m.D2HTimeNs <= 0 {
		t.Fatal("transfer times not accounted")
	}
}

func TestCopyBoundsChecked(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(10)
	defer b.Free()
	if err := d.CopyH2D(b, 5, make([]uint32, 6)); err == nil {
		t.Fatal("out-of-range H2D accepted")
	}
	if err := d.CopyH2D(b, -1, make([]uint32, 1)); err == nil {
		t.Fatal("negative-offset H2D accepted")
	}
	if err := d.CopyD2H(make([]uint32, 11), b, 0); err == nil {
		t.Fatal("out-of-range D2H accepted")
	}
}

func TestCopyToFreedBuffer(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(10)
	b.Free()
	if err := d.CopyH2D(b, 0, make([]uint32, 5)); err == nil {
		t.Fatal("H2D to freed buffer accepted")
	}
	if err := d.CopyD2H(make([]uint32, 5), b, 0); err == nil {
		t.Fatal("D2H from freed buffer accepted")
	}
}

func TestSyncCopyAdvancesHostClock(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(1 << 20)
	defer b.Free()
	before := d.HostTime()
	if err := d.CopyH2D(b, 0, make([]uint32, 1<<20)); err != nil {
		t.Fatal(err)
	}
	after := d.HostTime()
	wantMin := float64(4<<20) / d.Config().H2DBandwidthBps * 1e9
	if after-before < wantMin {
		t.Fatalf("sync copy advanced clock by %v ns, want ≥ %v ns", after-before, wantMin)
	}
}

func TestAsyncCopyDoesNotAdvanceHostClock(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(1 << 20)
	defer b.Free()
	s := d.NewStream()
	before := d.HostTime()
	if err := d.CopyH2DAsync(s, b, 0, make([]uint32, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != before {
		t.Fatal("async copy advanced host clock before synchronization")
	}
	s.Synchronize()
	if d.HostTime() <= before {
		t.Fatal("stream synchronize did not advance host clock")
	}
}

func TestAdvanceHost(t *testing.T) {
	d := MustNew(K20Config())
	d.AdvanceHost(1e9)
	if d.HostTime() != 1e9 {
		t.Fatalf("HostTime = %v, want 1e9", d.HostTime())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AdvanceHost did not panic")
		}
	}()
	d.AdvanceHost(-1)
}

func TestReset(t *testing.T) {
	d := MustNew(K20Config())
	b := d.MustMalloc(100)
	defer b.Free()
	_ = d.CopyH2D(b, 0, make([]uint32, 100))
	d.AdvanceHost(5)
	d.Reset()
	if d.HostTime() != 0 {
		t.Fatal("Reset did not clear host clock")
	}
	if m := d.Metrics(); m.H2DBytes != 0 || m.H2DTimeNs != 0 {
		t.Fatal("Reset did not clear metrics")
	}
	// Buffers survive reset.
	if d.AllocatedBuffers() != 1 {
		t.Fatal("Reset freed buffers")
	}
}
