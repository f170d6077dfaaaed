package core

// CPU and I/O cost model. The GPU side's virtual clock lives in gpusim; the
// host side's lives here. Host work is counted in abstract operations at the
// sites that perform it, converted to simulated nanoseconds with the
// constants below and charged to the run's sched.Ledger. The constants were calibrated so that, at the paper's
// full 20K-graph scale, the serial shingling stage and the host aggregation
// stage land in the neighborhood of Table I's measurements (392s serial
// total, 52.7s host-side in the accelerated run); see EXPERIMENTS.md for the
// calibration notes. They are variables, not consts, so the experiment
// harness can expose them as flags.
var (
	// SerialShingleNsPerOp prices one elementary shingling operation of the
	// 2008-era serial pClust code (hash application, insertion-scan step).
	// The paper attributes ~80% of serial runtime to these (Section III-C).
	SerialShingleNsPerOp = 340.0

	// AggregateNsPerOp prices one CPU-side aggregation operation (tuple
	// sorting/grouping, shingle-graph construction, split-list merging).
	AggregateNsPerOp = 38.0

	// ReportNsPerOp prices one Phase III reporting operation (union-find
	// unions/finds, component walks).
	ReportNsPerOp = 20.0

	// PackNsPerOp prices packing one 32-bit adjacency value into the packed
	// device image (bit-offset arithmetic, shift, or) before an H2D copy.
	// The same rate the pgraph staging path charges for residue packing.
	PackNsPerOp = 8.0

	// DiskBytesPerSec models the experimental platform's disk for the
	// "Disk I/O" column of Table I.
	DiskBytesPerSec = 14e6
)
