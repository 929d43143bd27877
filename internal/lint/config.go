package lint

import "strings"

// Config scopes each analyzer to the packages whose contract it
// encodes. Package entries are module-relative path suffixes
// ("internal/serve" matches "repro/internal/serve" and nothing else:
// matching is by whole path components, so "internal/serve" does not
// cover "internal/serve/cluster" — subpackages are listed explicitly,
// keeping every scoping decision visible in one place).
type Config struct {
	// Deterministic packages carry the byte-identical output contract:
	// maporder and globalrand apply here.
	Deterministic []string
	// VirtualClock packages model time on a virtual clock: wallclock
	// forbids reading or sleeping on the machine clock here.
	VirtualClock []string
	// GoHygiene packages may only spawn goroutines from the approved
	// worker-pool sites in GoAllowed.
	GoHygiene []string
	// GoAllowed lists the approved goroutine-spawn sites as
	// "<pkg-suffix>.<func>", e.g. "internal/serve.(*fleet).startPool".
	GoAllowed []string
	// Golden packages marshal the golden-pinned serving books:
	// goldencompat applies to their JSON-tagged structs.
	Golden []string
	// GoldenBaseline is the frozen pre-existing schema: fields (as
	// "<pkg-suffix>.<Struct>.<Field>") that predate the golden harness
	// and legitimately marshal without omitempty. Any JSON-tagged field
	// not listed here must carry omitempty so adding it cannot perturb
	// committed golden bytes. Regenerate with detlint -dump-golden-baseline
	// after deliberately extending the always-present schema.
	GoldenBaseline map[string]bool
}

// DefaultConfig is the repo's contract map, the single source of truth
// for which package owes which invariant.
func DefaultConfig() *Config {
	det := []string{
		"internal/serve",
		"internal/serve/sched",
		"internal/serve/cluster",
		"internal/serve/control",
		"internal/sim",
		"internal/core",
		"internal/video",
		"internal/tracker",
		"internal/hungarian",
		"internal/geom",
		"internal/detector",
		"cmd/benchdiff",
	}
	return &Config{
		Deterministic: det,
		VirtualClock:  det,
		GoHygiene:     det,
		GoAllowed: []string{
			// The serve step pool and the sim engine's sequence pool
			// are the blessed fan-out points for per-frame work; the
			// cluster router deliberately runs shards serially on the
			// virtual clock and spawns nothing.
			"internal/serve.(*fleet).startPool",
			"internal/sim.mapSequences",
			// World warm-up fans out over the step workers' bound. It is
			// deterministic because stream s's grower depends only on
			// (preset, seed, s) and its own RNG, and each goroutine
			// writes only the slots of the streams it builds.
			"internal/serve.newWorlds",
		},
		Golden:         []string{"internal/serve", "internal/serve/cluster", "internal/serve/control"},
		GoldenBaseline: goldenBaseline,
	}
}

// pkgMatch reports whether pkgPath ends with suffix on whole path
// components: "internal/serve" matches "repro/internal/serve" but not
// "repro/internal/serve/cluster" or "repro/myinternal/serve".
func pkgMatch(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	return strings.HasSuffix(pkgPath, "/"+suffix)
}

func pkgIn(pkgPath string, list []string) bool {
	for _, s := range list {
		if pkgMatch(pkgPath, s) {
			return true
		}
	}
	return false
}

// goAllowed reports whether the function name fn in pkgPath is an
// approved goroutine-spawn site.
func (c *Config) goAllowed(pkgPath, fn string) bool {
	for _, entry := range c.GoAllowed {
		dot := strings.LastIndex(entry, ".")
		// Method entries contain dots inside "(*Recv)": split at the
		// first dot after the package path instead — the package part
		// never contains parentheses.
		if i := strings.IndexAny(entry, "("); i > 0 && i < dot {
			dot = i - 1 // the dot preceding "(*Recv)"
		}
		if dot <= 0 {
			continue
		}
		pkg, name := entry[:dot], entry[dot+1:]
		if pkgMatch(pkgPath, pkg) && name == fn {
			return true
		}
	}
	return false
}
