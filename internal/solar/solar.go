// Package solar computes the solar zenith angle used by the fire
// classification algorithm to select day/night thresholds: the paper
// defines day as zenith < 70°, night as zenith > 90°, and linearly
// interpolates thresholds in between. The implementation uses the
// standard low-precision solar position algorithm (declination from day
// of year, hour angle from the equation of time), accurate to a fraction
// of a degree — far below the 20° width of the twilight band. A caller
// evaluating it over a grid pays each term once: At computes the
// per-instant terms, CosHourAngle the per-longitude one, Latitude the
// per-latitude pair, and Zenith combines them, as ZenithAngle does.
package solar

import (
	"math"
	"time"
)

const deg = math.Pi / 180

// Sun holds the terms of the zenith formula that depend on the time alone.
type Sun struct {
	hours, eqTime    float64
	sinDecl, cosDecl float64
}

// At computes the per-instant terms at a UTC time.
func At(t time.Time) Sun {
	t = t.UTC()
	doy := float64(t.YearDay())
	// Fractional year (radians).
	hours := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	gamma := 2 * math.Pi / 365 * (doy - 1 + (hours-12)/24)

	// Equation of time (minutes) and declination (radians) — Spencer 1971.
	eqTime := 229.18 * (0.000075 + 0.001868*math.Cos(gamma) - 0.032077*math.Sin(gamma) -
		0.014615*math.Cos(2*gamma) - 0.040849*math.Sin(2*gamma))
	decl := 0.006918 - 0.399912*math.Cos(gamma) + 0.070257*math.Sin(gamma) -
		0.006758*math.Cos(2*gamma) + 0.000907*math.Sin(2*gamma) -
		0.002697*math.Cos(3*gamma) + 0.00148*math.Sin(3*gamma)
	return Sun{hours: hours, eqTime: eqTime, sinDecl: math.Sin(decl), cosDecl: math.Cos(decl)}
}

// CosHourAngle is the cosine of the hour angle at longitude lon.
func (s Sun) CosHourAngle(lon float64) float64 {
	// True solar time (minutes).
	timeOffset := s.eqTime + 4*lon
	tst := s.hours*60 + timeOffset
	// Hour angle (degrees): 0 at solar noon.
	ha := tst/4 - 180
	return math.Cos(ha * deg)
}

// Latitude is the sine and cosine of lat.
func Latitude(lat float64) (sin, cos float64) {
	return math.Sin(lat * deg), math.Cos(lat * deg)
}

// Zenith returns the zenith angle in degrees from the latitude and
// hour-angle terms.
func (s Sun) Zenith(sinLat, cosLat, cosHourAngle float64) float64 {
	cosZen := sinLat*s.sinDecl + cosLat*s.cosDecl*cosHourAngle
	cosZen = math.Max(-1, math.Min(1, cosZen))
	return math.Acos(cosZen) / deg
}

// ZenithAngle returns the solar zenith angle in degrees at the given UTC
// time and geographic position (longitude east, latitude north, degrees).
func ZenithAngle(t time.Time, lon, lat float64) float64 {
	s := At(t)
	sinLat, cosLat := Latitude(lat)
	return s.Zenith(sinLat, cosLat, s.CosHourAngle(lon))
}

// Regime classifies illumination per the paper's thresholds.
type Regime int

// Illumination regimes.
const (
	Day Regime = iota
	Twilight
	Night
)

// Day/night zenith bounds from the paper: "Day is defined with a local
// solar zenith angle lower than 70° while night with a solar zenith angle
// of higher than 90°".
const (
	DayMaxZenith   = 70.0
	NightMinZenith = 90.0
)

// Classify maps a zenith angle to its regime.
func Classify(zenith float64) Regime {
	switch {
	case zenith < DayMaxZenith:
		return Day
	case zenith > NightMinZenith:
		return Night
	default:
		return Twilight
	}
}

// TwilightWeight returns the day-weight in [0, 1] for threshold
// interpolation: 1 in full day, 0 at night, linear in between.
func TwilightWeight(zenith float64) float64 {
	switch {
	case zenith <= DayMaxZenith:
		return 1
	case zenith >= NightMinZenith:
		return 0
	default:
		return (NightMinZenith - zenith) / (NightMinZenith - DayMaxZenith)
	}
}
