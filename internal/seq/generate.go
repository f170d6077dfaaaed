package seq

import (
	"fmt"
	"math/rand"

	"gpclust/internal/align"
	"gpclust/internal/graph"
)

// MetagenomeConfig controls the synthetic metagenome generator.
type MetagenomeConfig struct {
	NumSequences int // total ORFs to emit

	// Family structure: family sizes follow a power law on
	// [MinFamily, MaxFamily] with exponent Alpha; FamilyFraction of the
	// sequences belong to families, the rest are unrelated background ORFs.
	MinFamily      int
	MaxFamily      int
	Alpha          float64
	FamilyFraction float64

	// FamiliesPerSuper consecutive families share a proto-ancestor,
	// forming one loose super-family (the benchmark partition).
	FamiliesPerSuper int

	// AncestorLen is the length of each family's ancestral protein.
	AncestorLenMin, AncestorLenMax int

	// IntraDivergence is the per-residue substitution rate between a family
	// member and its ancestor; InterDivergence the (higher) rate between a
	// family ancestor and its super-family proto-ancestor.
	IntraDivergence float64
	InterDivergence float64

	// IndelRate is the per-position probability of a 1–3 residue indel when
	// deriving a member.
	IndelRate float64

	// UniformResidues draws residues uniformly over the 20 amino acids
	// instead of the natural Robinson–Robinson composition.
	UniformResidues bool

	// FragmentMin/Max bound the ORF fragment extracted from each member —
	// the shotgun-sequencing shredding step ("the shotgun sequencing
	// approach shreds the DNA pool into millions of tiny fragments", §I).
	// Fractions of the member length; set both to 1 to disable shredding.
	FragmentMin, FragmentMax float64

	Seed int64
}

// DefaultMetagenomeConfig returns a configuration producing GOS-like family
// structure at n sequences.
func DefaultMetagenomeConfig(n int) MetagenomeConfig {
	return MetagenomeConfig{
		NumSequences:     n,
		MinFamily:        5,
		MaxFamily:        max(20, n/25),
		Alpha:            2.2,
		FamilyFraction:   0.8,
		FamiliesPerSuper: 3,
		AncestorLenMin:   120,
		AncestorLenMax:   300,
		IntraDivergence:  0.10,
		InterDivergence:  0.45,
		IndelRate:        0.01,
		FragmentMin:      0.7,
		FragmentMax:      1.0,
		Seed:             1,
	}
}

// Metagenome is a generated data set with its ground truth.
type Metagenome struct {
	Seqs []Sequence
	// Family and SuperFamily label each sequence (-1 = background).
	Family      []int32
	SuperFamily []int32
	NumFamilies int
	NumSupers   int
}

// GenerateMetagenome produces a synthetic ORF data set per cfg.
func GenerateMetagenome(cfg MetagenomeConfig) (*Metagenome, error) {
	if cfg.NumSequences <= 0 {
		return nil, fmt.Errorf("seq: NumSequences = %d", cfg.NumSequences)
	}
	if cfg.FragmentMin <= 0 || cfg.FragmentMax > 1 || cfg.FragmentMin > cfg.FragmentMax {
		return nil, fmt.Errorf("seq: fragment bounds [%v,%v] invalid", cfg.FragmentMin, cfg.FragmentMax)
	}
	if cfg.AncestorLenMin < 20 || cfg.AncestorLenMax < cfg.AncestorLenMin {
		return nil, fmt.Errorf("seq: ancestor length bounds [%d,%d] invalid", cfg.AncestorLenMin, cfg.AncestorLenMax)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := newResidueSampler(nil)
	if cfg.UniformResidues {
		uniform := map[byte]float64{}
		for i := 0; i < 20; i++ {
			uniform[align.Alphabet[i]] = 1
		}
		sampler = newResidueSampler(uniform)
	}
	n := cfg.NumSequences
	m := &Metagenome{
		Seqs:        make([]Sequence, 0, n),
		Family:      make([]int32, n),
		SuperFamily: make([]int32, n),
	}
	for i := range m.Family {
		m.Family[i] = -1
		m.SuperFamily[i] = -1
	}

	inFamilies := int(float64(n) * cfg.FamilyFraction)
	sizes := graph.PowerLawSizes(rng, inFamilies, cfg.MinFamily, cfg.MaxFamily, cfg.Alpha)
	m.NumFamilies = len(sizes)
	fps := cfg.FamiliesPerSuper
	if fps < 1 {
		fps = 1
	}
	m.NumSupers = (len(sizes) + fps - 1) / fps

	var proto []byte
	idx := 0
	for f, sz := range sizes {
		if f%fps == 0 {
			proto = randomProtein(rng, sampler, cfg.AncestorLenMin, cfg.AncestorLenMax)
		}
		ancestor := mutateProtein(rng, sampler, proto, cfg.InterDivergence, cfg.IndelRate)
		super := int32(f / fps)
		for k := 0; k < sz; k++ {
			member := mutateProtein(rng, sampler, ancestor, cfg.IntraDivergence, cfg.IndelRate)
			member = fragment(rng, member, cfg.FragmentMin, cfg.FragmentMax)
			m.Seqs = append(m.Seqs, Sequence{
				ID:       fmt.Sprintf("orf%06d_f%d_s%d", idx, f, super),
				Residues: member,
			})
			m.Family[idx] = int32(f)
			m.SuperFamily[idx] = super
			idx++
		}
	}
	// Background: unrelated random ORFs.
	for idx < n {
		m.Seqs = append(m.Seqs, Sequence{
			ID:       fmt.Sprintf("orf%06d_bg", idx),
			Residues: randomProtein(rng, sampler, cfg.AncestorLenMin, cfg.AncestorLenMax),
		})
		idx++
	}
	return m, nil
}

// randomProtein draws a random protein of length in [lo, hi] from the
// sampler's residue composition.
func randomProtein(rng *rand.Rand, sampler *residueSampler, lo, hi int) []byte {
	n := lo + rng.Intn(hi-lo+1)
	s := make([]byte, n)
	for i := range s {
		s[i] = sampler.sample(rng)
	}
	return s
}

// mutateProtein substitutes residues at the given rate and applies short
// indels at indelRate, drawing replacements from the sampler's composition.
func mutateProtein(rng *rand.Rand, sampler *residueSampler, s []byte, subRate, indelRate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, c := range s {
		if rng.Float64() < indelRate {
			if rng.Intn(2) == 0 {
				continue // deletion
			}
			for k := 1 + rng.Intn(3); k > 0; k-- { // insertion
				out = append(out, sampler.sample(rng))
			}
		}
		if rng.Float64() < subRate {
			out = append(out, sampler.sample(rng))
		} else {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, s[0])
	}
	return out
}

// fragment extracts a random window covering a fraction in [lo, hi] of the
// member, simulating partial ORFs from shotgun fragments.
func fragment(rng *rand.Rand, s []byte, lo, hi float64) []byte {
	frac := lo + rng.Float64()*(hi-lo)
	n := int(float64(len(s)) * frac)
	if n < 1 {
		n = 1
	}
	if n >= len(s) {
		return s
	}
	start := rng.Intn(len(s) - n + 1)
	return s[start : start+n]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
