package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cfc"
	"repro/internal/ir"
	"repro/internal/profile"
)

// Scheme is a protection scheme: a named transformation that hardens a
// module against transient faults. Schemes are registered in a process-wide
// registry so every layer — campaigns, differential testing, figures, the
// CLIs — enumerates the same set without hardcoded mode lists, and new
// schemes become comparable everywhere the moment they are registered.
type Scheme interface {
	// Name is the canonical, machine-readable identifier ("dupval").
	// Names are lowercase and never contain '+' (reserved for composition).
	Name() string
	// Title is the human-readable label used in reports and figures
	// ("Dup + val chks").
	Title() string
	// NeedsProfile reports whether Apply requires value profiles.
	NeedsProfile() bool
	// Apply protects m in place and returns static statistics. Callers that
	// need the unprotected module afterwards must Clone first. prof may be
	// nil unless NeedsProfile. Apply leaves the module renumbered and
	// verifier-clean.
	Apply(m *ir.Module, prof *profile.Data, p Params) (*Stats, error)
}

// Canonical names of the four paper schemes (MICRO 2014 configurations),
// then the extensions.
const (
	SchemeOriginal = "original" // no protection
	SchemeDup      = "dup"      // state-variable duplication only
	SchemeDupVal   = "dupval"   // duplication + expected-value checks (+ Opt 1 & 2)
	SchemeFullDup  = "fulldup"  // SWIFT-style full duplication baseline
	SchemeABFT     = "abft"     // per-kernel checksum protection (post-paper)
	SchemeCFC      = "cfc"      // signature-based control-flow checking (§IV-C)
)

var (
	regMu    sync.RWMutex
	registry []Scheme
	byName   = map[string]Scheme{}
)

// Register adds a scheme to the registry. It panics on a duplicate or
// malformed name — registration happens at init time, where a panic is a
// build error, not a runtime hazard.
func Register(s Scheme) {
	name := s.Name()
	if name == "" || strings.ContainsAny(name, "+ \t\n") || name != strings.ToLower(name) {
		panic(fmt.Sprintf("core: invalid scheme name %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("core: scheme %q already registered", name))
	}
	registry = append(registry, s)
	byName[name] = s
}

// SchemeNames returns the canonical names of all registered schemes in
// registration order.
func SchemeNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// Lookup returns the registered scheme with the given canonical name.
func Lookup(name string) (Scheme, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := byName[name]
	return s, ok
}

// ParseScheme resolves a scheme spec: a canonical name ("dupval"), or a
// '+'-separated composition of names ("abft+dupval"), which yields a
// composite applying each part in the listed order. Matching is
// case-insensitive.
func ParseScheme(spec string) (Scheme, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "+")
	var parsed []Scheme
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("core: empty scheme name in %q", spec)
		}
		s, ok := Lookup(p)
		if !ok {
			return nil, fmt.Errorf("core: unknown scheme %q (have %s)", p, strings.Join(SchemeNames(), ", "))
		}
		parsed = append(parsed, s)
	}
	if len(parsed) == 1 {
		return parsed[0], nil
	}
	return Compose(parsed...), nil
}

// Compose combines schemes into one that applies each part in order to the
// same module (e.g. ABFT checksums on the kernels plus value checks
// elsewhere). Check IDs stay module-unique across parts, so check
// bookkeeping (recovery, false-positive squelching) sees one flat ID space.
// Composites are values, not registry entries; register one explicitly to
// make it enumerable.
func Compose(parts ...Scheme) Scheme {
	names := make([]string, len(parts))
	titles := make([]string, len(parts))
	for i, s := range parts {
		names[i] = s.Name()
		titles[i] = s.Title()
	}
	return &composite{
		parts: parts,
		name:  strings.Join(names, "+"),
		title: strings.Join(titles, " + "),
	}
}

type composite struct {
	parts []Scheme
	name  string
	title string
}

func (c *composite) Name() string  { return c.name }
func (c *composite) Title() string { return c.title }

func (c *composite) NeedsProfile() bool {
	for _, s := range c.parts {
		if s.NeedsProfile() {
			return true
		}
	}
	return false
}

func (c *composite) Apply(m *ir.Module, prof *profile.Data, p Params) (*Stats, error) {
	total := m.NumInstrs()
	sum := &Stats{Scheme: c.name, TotalInstrs: total}
	for _, s := range c.parts {
		st, err := s.Apply(m, prof, p)
		if err != nil {
			return nil, fmt.Errorf("core: composite %s: %w", c.name, err)
		}
		sum.StateVars += st.StateVars
		sum.DupInstrs += st.DupInstrs
		sum.ValueChecks += st.ValueChecks
		sum.DupChecks += st.DupChecks
		sum.CheckedInstr += st.CheckedInstr
		sum.ABFTKernels += st.ABFTKernels
		sum.ABFTChecks += st.ABFTChecks
		sum.CFCChecks += st.CFCChecks
		sum.CFCUnchecked += st.CFCUnchecked
	}
	return sum, nil
}

// nextCheckID returns the smallest check ID above every check already in
// the module, so schemes applied in sequence never collide in the flat
// check-ID space (DisabledChecks and recovery key on it). A fresh module
// yields 1, matching the historical single-scheme numbering exactly.
func nextCheckID(m *ir.Module) int {
	max := 0
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) bool {
			if in.Op.IsCheck() && in.CheckID > max {
				max = in.CheckID
			}
			return true
		})
	}
	return max + 1
}

// finishTransform renumbers and verifies a module after a scheme transform;
// every scheme funnels through it so none can leave invalid IR behind.
func finishTransform(m *ir.Module, name string) error {
	m.Renumber()
	if err := m.Verify(); err != nil {
		return fmt.Errorf("core: %s produced invalid IR: %w", name, err)
	}
	return nil
}

// scheme is the common implementation of the built-in schemes: a name pair,
// a profile flag, and a transform. The transform mutates the module and
// fills stats; renumbering and verification are handled here.
type scheme struct {
	name, title string
	needsProf   bool
	transform   func(m *ir.Module, prof *profile.Data, p Params, st *Stats) error
}

func (s *scheme) Name() string       { return s.name }
func (s *scheme) Title() string      { return s.title }
func (s *scheme) NeedsProfile() bool { return s.needsProf }

func (s *scheme) Apply(m *ir.Module, prof *profile.Data, p Params) (*Stats, error) {
	if s.needsProf && prof == nil {
		return nil, fmt.Errorf("core: %s requires value profiles", s.name)
	}
	st := &Stats{Scheme: s.name, TotalInstrs: m.NumInstrs()}
	if err := s.transform(m, prof, p, st); err != nil {
		return nil, err
	}
	if err := finishTransform(m, s.name); err != nil {
		return nil, err
	}
	return st, nil
}

func init() {
	// Registration order is the paper's cost order; extensions follow.
	Register(&scheme{name: SchemeOriginal, title: "Original",
		transform: func(m *ir.Module, prof *profile.Data, p Params, st *Stats) error { return nil }})
	Register(&scheme{name: SchemeDup, title: "Dup only", transform: dupTransform(false)})
	Register(&scheme{name: SchemeDupVal, title: "Dup + val chks", needsProf: true,
		transform: dupTransform(true)})
	Register(&scheme{name: SchemeFullDup, title: "Full duplication", transform: fullDupTransform})
	Register(&scheme{name: SchemeABFT, title: "ABFT checksums", transform: abftTransform})
	Register(&scheme{name: SchemeCFC, title: "CFC", transform: cfcTransform})
}

// cfcTransform adds CFCSS-style signature checks for branch-target faults,
// the complementary technique §IV-C pairs with selective protection.
// Composed after another scheme ("dupval+cfc"), its check IDs continue
// past that scheme's.
func cfcTransform(m *ir.Module, prof *profile.Data, p Params, st *Stats) error {
	cs, err := cfc.Protect(m, nextCheckID(m))
	if err != nil {
		return err
	}
	st.CFCChecks, st.CFCUnchecked = cs.Checks, cs.Unchecked
	return nil
}

// Title resolves a scheme spec to its display title ("dupval" → "Dup + val
// chks", "abft+dupval" → "ABFT checksums + Dup + val chks"). Unknown specs
// are returned verbatim so callers can use it on free-form labels.
func Title(spec string) string {
	s, err := ParseScheme(spec)
	if err != nil {
		return spec
	}
	return s.Title()
}
