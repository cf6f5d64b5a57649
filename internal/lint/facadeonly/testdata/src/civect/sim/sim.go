// Package sim is a fixture stub standing in for the civect/sim
// façade.
package sim

// New is a placeholder so importing fixtures have something to call.
func New() int { return 0 }

// NewSet stands in for the set API entry point: multi-config sweeps
// are reached through the façade, never by importing internal/core.
func NewSet() int { return 0 }
