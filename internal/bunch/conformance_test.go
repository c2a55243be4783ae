package bunch_test

import (
	"testing"

	"repro/internal/alloctest"

	_ "repro/internal/bunch" // register the four leaf labels
)

func TestConformance(t *testing.T) { alloctest.Run(t, "4lvl-nb") }

func TestConformance1Lvl(t *testing.T) { alloctest.Run(t, "1lvl-nb") }

// The SL discipline's plain stores are race-free only through the lock's
// happens-before edges; CI runs these under the race detector by name.
func TestConformanceSpinLocked1Lvl(t *testing.T) { alloctest.Run(t, "1lvl-sl") }

func TestConformanceSpinLocked4Lvl(t *testing.T) { alloctest.Run(t, "4lvl-sl") }
