package bunch_test

import (
	"testing"

	"repro/internal/alloctest"

	_ "repro/internal/bunch" // register 1lvl-nb and 4lvl-nb
)

func TestConformance(t *testing.T) { alloctest.Run(t, "4lvl-nb") }

func TestConformance1Lvl(t *testing.T) { alloctest.Run(t, "1lvl-nb") }
