// Package gpclust is a reproduction of "GPU-accelerated protein family
// identification for metagenomics" (Wu & Kalyanaraman, IPDPSW 2013): the
// gpClust CPU–GPU implementation of the randomized Shingling dense-subgraph
// heuristic (Gibson, Kumar & Tomkins 2005), together with every substrate
// the paper's pipeline depends on — a SIMT GPU simulator standing in for
// the CUDA/Thrust platform, the pGraph homology-graph construction
// (suffix-structure pair filter + Smith–Waterman), a synthetic-metagenome
// generator standing in for the GOS ocean data, the GOS k-neighbor-linkage
// clustering baseline, and the paper's quality metrics.
//
// Quick start:
//
//	g, _ := gpclust.Planted(gpclust.DefaultPlantedConfig(20000))
//	dev := gpclust.NewK20()
//	res, err := gpclust.ClusterGPU(g, dev, gpclust.DefaultOptions())
//	// res.Clustering.Clusters are the protein-family "core sets";
//	// res.Timings is the Table I component breakdown (virtual clock).
//
// The serial reference implementation (pClust) is gpclust.Cluster; for the
// same Options both backends return bit-identical clusterings.
package gpclust

import (
	"gpclust/internal/align"
	"gpclust/internal/assemble"
	"gpclust/internal/core"
	"gpclust/internal/gos"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/mcl"
	"gpclust/internal/metrics"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// Graph is an undirected similarity graph in CSR form.
type Graph = graph.Graph

// Edge is one undirected edge.
type Edge = graph.Edge

// GraphBuilder accumulates edges into a Graph.
type GraphBuilder = graph.Builder

// GraphStats summarizes a graph (Table II).
type GraphStats = graph.Stats

// PlantedConfig configures the planted dense-subgraph generator.
type PlantedConfig = graph.PlantedConfig

// GroundTruth is the planted family/super-family assignment.
type GroundTruth = graph.GroundTruth

// NewGraphBuilder returns a builder for a graph with at least n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Planted generates a graph with planted dense subgraphs and ground truth.
func Planted(cfg PlantedConfig) (*Graph, *GroundTruth) { return graph.Planted(cfg) }

// DefaultPlantedConfig targets the shape of the paper's 2M-sequence graph
// at n vertices.
func DefaultPlantedConfig(n int) PlantedConfig { return graph.DefaultPlantedConfig(n) }

// ComputeGraphStats measures a graph the way Table II does.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// RMAT generates a scale-free web-like graph (2^scaleLog2 vertices, ≤ m
// edges) with the recursive-matrix model — the host-graph shape of the
// Shingling heuristic's original application.
func RMAT(scaleLog2, m int, a, b, c float64, seed int64) *Graph {
	return graph.RMAT(scaleLog2, m, a, b, c, seed)
}

// Options configures a clustering run; DefaultOptions returns the paper's
// published parameters (s1=2, c1=200, s2=2, c2=100, union-find reporting).
type Options = core.Options

// Result is a clustering run's output: the clusters, the Table I timing
// breakdown on the virtual clock, and per-pass statistics.
type Result = core.Result

// Clustering is the output partition (or cover, in overlapping mode).
type Clustering = core.Clustering

// Timings is the Table I component breakdown in simulated nanoseconds.
type Timings = core.Timings

// ReportMode selects Phase III's cluster-enumeration strategy.
type ReportMode = core.ReportMode

// Reporting strategies (Section III-B, Phase III).
const (
	ReportUnionFind   = core.ReportUnionFind
	ReportOverlapping = core.ReportOverlapping
)

// DefaultOptions returns the paper's parameter settings.
func DefaultOptions() Options { return core.DefaultOptions() }

// Cluster runs the serial pClust shingling pipeline.
func Cluster(g *Graph, o Options) (*Result, error) { return core.ClusterSerial(g, o) }

// ClusterParallel runs Cluster's pipeline on a host worker pool
// (Options.Workers, 0 = GOMAXPROCS): each shingling pass's per-trial
// shingling and sorts run on the pool, reporting runs serially. Clustering,
// virtual-clock timings and pass statistics are bit-identical to Cluster's
// for the same Options; the speedup shows in Result.Wall.
func ClusterParallel(g *Graph, o Options) (*Result, error) { return core.ClusterParallel(g, o) }

// ClusterGPU runs the gpClust CPU–GPU pipeline on the given device.
func ClusterGPU(g *Graph, dev *Device, o Options) (*Result, error) {
	return core.ClusterGPU(g, dev, o)
}

// ClusterByComponent decomposes the graph into connected components (the
// pClust strategy of Section I-B) and shingles each independently on a
// worker pool; clusters never span components, so decomposition is exact.
func ClusterByComponent(g *Graph, o Options, workers int) (*Result, error) {
	return core.ClusterByComponent(g, o, workers)
}

// Device is the simulated GPU; DeviceConfig describes its architecture.
type Device = gpusim.Device

// DeviceConfig describes a simulated GPU's architecture and cost model.
type DeviceConfig = gpusim.Config

// DeviceMetrics is the device's virtual-clock accounting snapshot.
type DeviceMetrics = gpusim.Metrics

// K20Config returns the configuration of the paper's NVIDIA Tesla K20.
func K20Config() DeviceConfig { return gpusim.K20Config() }

// NewDevice creates a simulated GPU.
func NewDevice(cfg DeviceConfig) (*Device, error) { return gpusim.New(cfg) }

// NewK20 creates the paper's experimental device (panics only if the
// built-in configuration were invalid).
func NewK20() *Device { return gpusim.MustNew(gpusim.K20Config()) }

// Sequence is one protein/ORF sequence.
type Sequence = seq.Sequence

// Metagenome is a generated ORF data set with ground truth.
type Metagenome = seq.Metagenome

// MetagenomeConfig configures the synthetic metagenome generator.
type MetagenomeConfig = seq.MetagenomeConfig

// DefaultMetagenomeConfig returns GOS-like family structure at n sequences.
func DefaultMetagenomeConfig(n int) MetagenomeConfig { return seq.DefaultMetagenomeConfig(n) }

// GenerateMetagenome produces a synthetic ORF data set.
func GenerateMetagenome(cfg MetagenomeConfig) (*Metagenome, error) {
	return seq.GenerateMetagenome(cfg)
}

// ShotgunConfig configures shotgun-read simulation from a metagenome.
type ShotgunConfig = seq.ShotgunConfig

// ShotgunRead is one simulated shotgun DNA fragment.
type ShotgunRead = seq.ShotgunRead

// DefaultShotgunConfig returns a typical shotgun-sequencing configuration.
func DefaultShotgunConfig() ShotgunConfig { return seq.DefaultShotgunConfig() }

// SimulateShotgun reverse-translates a metagenome into genomic regions and
// shreds them into reads (the paper's §I data-preparation front half).
func SimulateShotgun(m *Metagenome, cfg ShotgunConfig) ([]ShotgunRead, error) {
	return seq.SimulateShotgun(m, cfg)
}

// ORFsFromReads extracts putative proteins from reads by six-frame
// translation ("translated into six frames to result in Open Reading
// Frames").
func ORFsFromReads(reads []ShotgunRead, minLen int) []Sequence {
	return seq.ORFsFromReads(reads, minLen)
}

// AssembleConfig configures the greedy overlap assembler.
type AssembleConfig = assemble.Config

// Contig is one assembled sequence.
type Contig = assemble.Contig

// DefaultAssembleConfig returns Sanger-style assembly settings.
func DefaultAssembleConfig() AssembleConfig { return assemble.DefaultConfig() }

// Assemble merges shotgun reads into contigs by greedy exact suffix–prefix
// overlap (the "assembled" step of §I's pipeline).
func Assemble(reads []ShotgunRead, cfg AssembleConfig) ([]Contig, error) {
	return assemble.Assemble(reads, cfg)
}

// ContigN50 is the standard assembly-contiguity statistic.
func ContigN50(contigs []Contig) int { return assemble.N50(contigs) }

// ORFsFromContigs extracts putative proteins from contigs by six-frame
// translation.
func ORFsFromContigs(contigs []Contig, minLen int) []Sequence {
	return assemble.ORFs(contigs, minLen)
}

// AlignScore returns the Smith–Waterman local-alignment score of two
// protein sequences over BLOSUM62 with the default affine-gap penalties —
// the verification scorer of the pGraph phase, exposed for direct use.
func AlignScore(a, b []byte) int {
	return int(align.ScoreCodes(align.Encode(a), align.Encode(b), align.Blosum62Table,
		align.AlphabetSize, align.DefaultParams(), new(align.Scratch)))
}

// PGraphConfig configures homology-graph construction.
type PGraphConfig = pgraph.Config

// PGraphStats reports the construction pipeline's work.
type PGraphStats = pgraph.Stats

// DefaultPGraphConfig returns settings suitable for synthetic metagenomes.
func DefaultPGraphConfig() PGraphConfig { return pgraph.DefaultConfig() }

// Candidate filter backends for PGraphConfig.Filter.
const (
	FilterExact = pgraph.FilterExact
	FilterLSH   = pgraph.FilterLSH
)

// BuildHomologyGraph constructs the sequence-similarity graph: exact-match
// filtering via a generalized suffix structure, then Smith–Waterman
// verification (the pGraph phase of the pipeline).
func BuildHomologyGraph(seqs []Sequence, cfg PGraphConfig) (*Graph, PGraphStats, error) {
	return pgraph.Build(seqs, cfg)
}

// GOSOptions configures the GOS k-neighbor-linkage baseline.
type GOSOptions = gos.Options

// DefaultGOSOptions returns the GOS study's configuration (k = 10).
func DefaultGOSOptions() GOSOptions { return gos.DefaultOptions() }

// ClusterGOS partitions the graph with the GOS k-neighbor linkage baseline.
func ClusterGOS(g *Graph, o GOSOptions) ([][]uint32, error) { return gos.Cluster(g, o) }

// MCLOptions configures the Markov Clustering baseline.
type MCLOptions = mcl.Options

// DefaultMCLOptions returns TribeMCL-style settings (inflation 2.0).
func DefaultMCLOptions() MCLOptions { return mcl.DefaultOptions() }

// ClusterMCL partitions the graph with Markov Clustering (van Dongen 2000),
// the algorithm most metagenomic pipelines use where the paper uses
// Shingling — included as an extended comparison baseline.
func ClusterMCL(g *Graph, o MCLOptions) ([][]uint32, error) { return mcl.Cluster(g, o) }

// Confusion is the pairwise TP/FP/FN/TN classification of Section IV-D.
type Confusion = metrics.Confusion

// PairConfusion classifies every pair of the n-element universe given the
// two partitions' per-vertex labels (-1 = unassigned).
func PairConfusion(test, bench []int32, n int) Confusion {
	return metrics.PairConfusion(test, bench, n)
}

// LabelsFromClusters converts clusters to labels, dropping clusters smaller
// than minSize (the paper evaluates size ≥ 20 only).
func LabelsFromClusters(clusters [][]uint32, n, minSize int) []int32 {
	return metrics.LabelsFromClusters(clusters, n, minSize)
}

// Density is the intra-connectivity measure of Equation 6.
func Density(g *Graph, members []uint32) float64 { return metrics.Density(g, members) }

// DensityStats is the mean ± sd cluster density across clusters.
func DensityStats(g *Graph, clusters [][]uint32) (mean, std float64) {
	return metrics.DensityStats(g, clusters)
}
