package sweep

// Precision tiers. A sweep spec's "precision" field selects between the
// exact kernels (all-pairs BFS diameter, full-convergence Lanczos — the
// historical behavior and the default) and the sampled tier
// ("sampled:k"), where measures run k-sample approximations with
// error-bar companion metrics and graphs may use the raised gen caps.
// The tier is part of a cell's semantic identity: sampled cells fold it
// into their seeds, so exact cells keep their historical seeds (and
// byte-identical output), sampled output never collides with exact
// output, and resume refuses to mix tiers. A measure declares that its
// TrialSetup implements the sampled tier with its Measure.Sampled flag.

import (
	"fmt"
	"strconv"
	"strings"
)

// Precision names a measurement tier: exact (the zero value) or
// sampled with a per-trial sample budget K ≥ 1.
type Precision struct {
	Sampled bool
	K       int
}

// PrecisionExact is the default tier — the historical exact kernels.
var PrecisionExact = Precision{}

// String renders the tier in spec-field form: "exact" or "sampled:k".
func (p Precision) String() string {
	if !p.Sampled {
		return "exact"
	}
	return "sampled:" + strconv.Itoa(p.K)
}

// ParsePrecision parses a spec precision field. Empty and "exact" are
// the exact tier; "sampled:k" with integer k ≥ 1 is the sampled tier.
func ParsePrecision(s string) (Precision, error) {
	switch {
	case s == "" || s == "exact":
		return Precision{}, nil
	case strings.HasPrefix(s, "sampled:"):
		k, err := strconv.Atoi(s[len("sampled:"):])
		if err != nil || k < 1 {
			return Precision{}, fmt.Errorf("sweep: bad precision %q: sampled:k needs an integer k ≥ 1", s)
		}
		return Precision{Sampled: true, K: k}, nil
	default:
		return Precision{}, fmt.Errorf(`sweep: unknown precision %q (want "exact" or "sampled:k")`, s)
	}
}

// SampledCapable reports whether the named measure supports the
// sampled-precision tier (its Measure.Sampled).
func SampledCapable(name string) bool {
	m, _ := lookup(name)
	return m.Sampled
}

// SampledMeasures lists the sampled-capable measures, sorted.
func SampledMeasures() []string {
	return measureNames(func(m Measure) bool { return m.Sampled })
}
