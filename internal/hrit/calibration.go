package hrit

import "fmt"

// Calibration converts raw 10-bit detector counts to brightness
// temperatures in kelvin and back, the step the paper describes as "the
// input of these two bands is subsequently transformed into temperature
// values". The mapping is affine per channel, covering the physically
// plausible temperature span of each SEVIRI IR band.
type Calibration struct {
	Channel string
	// T = Offset + Slope * count
	Offset, Slope float64
}

// Channel names used throughout the service.
const (
	ChannelIR039 = "IR_039" // 3.9 µm — fire-sensitive band
	ChannelIR108 = "IR_108" // 10.8 µm — thermal background band
)

var calibrations = map[string]Calibration{
	// 3.9 µm saturates high for fires: span 170..450 K over 1024 counts.
	ChannelIR039: {Channel: ChannelIR039, Offset: 170, Slope: (450.0 - 170.0) / 1023.0},
	// 10.8 µm: span 170..340 K.
	ChannelIR108: {Channel: ChannelIR108, Offset: 170, Slope: (340.0 - 170.0) / 1023.0},
}

// CalibrationFor returns the channel's calibration.
func CalibrationFor(channel string) (Calibration, error) {
	c, ok := calibrations[channel]
	if !ok {
		return Calibration{}, fmt.Errorf("hrit: no calibration for channel %q", channel)
	}
	return c, nil
}

// CountToTemp converts one count to kelvin.
func (c Calibration) CountToTemp(count uint16) float64 {
	return c.Offset + c.Slope*float64(count)
}

// TempToCount converts kelvin to the nearest representable count,
// clamping to the channel's span.
func (c Calibration) TempToCount(t float64) uint16 {
	v := (t - c.Offset) / c.Slope
	if v < 0 {
		return 0
	}
	if v > 1023 {
		return 1023
	}
	return uint16(v + 0.5)
}
