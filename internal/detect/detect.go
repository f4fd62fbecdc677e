// Package detect implements the contextual fire classification of the
// processing chain: the EUMETSAT Active Fire Monitoring thresholding
// algorithm [EUM/MET/REP/07/0170] as used by the paper — per-pixel tests
// on the 3.9 µm brightness temperature, the 3.9−10.8 µm difference, and
// the 3×3 windowed standard deviations of both bands, with day/night
// threshold sets interpolated across twilight by solar zenith angle.
//
// The SciQL chain states this classification declaratively (the paper's
// Figure 4 query, filled in with ForZenith's thresholds); LegacyClassify
// (see legacy.go) is the imperative baseline standing in for the paper's
// "legacy C" implementation in the Table 2 comparison.
package detect

import "repro/internal/solar"

// Confidence levels of the classification, as in the paper: "The value 2
// denotes fire, value 1 denotes potential fire while 0 denotes no fire."
const (
	NoFire        = 0
	PotentialFire = 1
	Fire          = 2
)

// Thresholds is one threshold set of the EUMETSAT algorithm.
type Thresholds struct {
	T039          float64 // min 3.9 µm temperature (K)
	DiffFire      float64 // min 3.9−10.8 difference for confidence 2
	DiffPotential float64 // min difference for confidence 1
	Std039Fire    float64 // min 3.9 µm window std-dev for confidence 2
	Std039Pot     float64 // min std-dev for confidence 1
	Std108Max     float64 // max 10.8 µm window std-dev (cloud-edge guard)
}

// DayThresholds are the values in the paper's Figure 4 (daytime image).
var DayThresholds = Thresholds{
	T039:          310,
	DiffFire:      10,
	DiffPotential: 8,
	Std039Fire:    4,
	Std039Pot:     2.5,
	Std108Max:     2,
}

// NightThresholds follow the EUMETSAT ATBD's night configuration: the
// 3.9 µm background is colder at night, so the absolute and contextual
// thresholds relax.
var NightThresholds = Thresholds{
	T039:          290,
	DiffFire:      8,
	DiffPotential: 6,
	Std039Fire:    3,
	Std039Pot:     2,
	Std108Max:     2,
}

// Interpolate blends two threshold sets: w = 1 gives day, w = 0 night.
// The paper: "For solar zenith angles between 70° and 90° the thresholds
// are linearly interpolated."
func Interpolate(day, night Thresholds, w float64) Thresholds {
	mix := func(d, n float64) float64 { return n + (d-n)*w }
	return Thresholds{
		T039:          mix(day.T039, night.T039),
		DiffFire:      mix(day.DiffFire, night.DiffFire),
		DiffPotential: mix(day.DiffPotential, night.DiffPotential),
		Std039Fire:    mix(day.Std039Fire, night.Std039Fire),
		Std039Pot:     mix(day.Std039Pot, night.Std039Pot),
		Std108Max:     mix(day.Std108Max, night.Std108Max),
	}
}

// ForZenith returns the interpolated threshold set for a solar zenith
// angle in degrees.
func ForZenith(zenith float64) Thresholds {
	return Interpolate(DayThresholds, NightThresholds, solar.TwilightWeight(zenith))
}

// ClassifyPixel applies a threshold set to one pixel's statistics.
func ClassifyPixel(t039, t108, std039, std108 float64, th Thresholds) int {
	diff := t039 - t108
	if t039 > th.T039 && diff > th.DiffFire && std039 > th.Std039Fire && std108 < th.Std108Max {
		return Fire
	}
	if t039 > th.T039 && diff > th.DiffPotential && std039 > th.Std039Pot && std108 < th.Std108Max {
		return PotentialFire
	}
	return NoFire
}
