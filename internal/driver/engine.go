package driver

import (
	"fmt"
	"strings"
)

// Engine selects the execution tier a run uses. The bytecode VM is the
// default: it executes compiled register code at a multiple of the tree
// tier's speed while producing byte-identical output, errors and
// dispatch counters (the differential suites enforce this). The tree
// interpreter is the reference tier: the differential-testing oracle
// and the target of "-engine tree". A run never switches tiers; a
// bytecode compile failure is an internal error.
type Engine int

// Execution engines. The zero value is EngineVM so RunOptions defaults
// to the fast tier.
const (
	EngineVM Engine = iota
	EngineTree
)

var engineNames = [...]string{"vm", "tree"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineNames returns the valid engine names — the single source of
// truth for CLI help text and error messages.
func EngineNames() []string { return append([]string(nil), engineNames[:]...) }

// ParseEngine resolves an engine name (as printed by String). The empty
// string selects the default engine (vm).
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EngineVM, nil
	}
	for i, n := range engineNames {
		if n == s {
			return Engine(i), nil
		}
	}
	return 0, fmt.Errorf("driver: unknown engine %q (valid: %s)", s, strings.Join(engineNames[:], ", "))
}
