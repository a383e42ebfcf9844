package covert

import (
	"math/rand"

	"autocat/internal/rng"
	"autocat/internal/stats"
)

// Machine models one of the four real processors of Table X: its L1
// configuration and cycle cost model.
type Machine struct {
	Name      string
	Microarch string
	L1KB      int
	L1Ways    int
	OS        string
	Timing    Timing
	// NoiseEvict is the baseline per-access interference probability under
	// normal operating conditions (hardware prefetchers on, other
	// processes running).
	NoiseEvict float64
}

// Machines returns the Table X catalogue. Frequencies and cache shapes
// match the real parts; latencies and guard times are calibrated so the
// modelled bit rates land in the paper's few-Mbps range.
func Machines() []Machine {
	return []Machine{
		{
			Name: "Xeon E5-2687W v2", Microarch: "IvyBridge", L1KB: 32, L1Ways: 8, OS: "Ubuntu18",
			Timing:     Timing{HitCycles: 4, MissCycles: 20, MeasureCycles: 34, GuardCycles: 1200, FreqGHz: 3.4},
			NoiseEvict: 0.0015,
		},
		{
			Name: "Core i7-6700", Microarch: "Skylake", L1KB: 32, L1Ways: 8, OS: "Ubuntu18",
			Timing:     Timing{HitCycles: 4, MissCycles: 22, MeasureCycles: 40, GuardCycles: 1460, FreqGHz: 3.4},
			NoiseEvict: 0.002,
		},
		{
			Name: "Core i5-11600K", Microarch: "RocketLake", L1KB: 48, L1Ways: 12, OS: "CentOS8",
			Timing:     Timing{HitCycles: 5, MissCycles: 24, MeasureCycles: 42, GuardCycles: 565, FreqGHz: 3.9},
			NoiseEvict: 0.002,
		},
		{
			Name: "Xeon W-1350P", Microarch: "RocketLake", L1KB: 48, L1Ways: 12, OS: "Ubuntu20",
			Timing:     Timing{HitCycles: 5, MissCycles: 24, MeasureCycles: 42, GuardCycles: 560, FreqGHz: 4.0},
			NoiseEvict: 0.0025,
		},
	}
}

// Transmission summarizes one bit-string transfer over a channel.
type Transmission struct {
	Bits         int
	Symbols      int
	Cycles       int
	Seconds      float64
	BitRateMbps  float64
	ErrorRate    float64
	VictimMisses int
	Accesses     int
	Measured     int
}

// RandomBits returns an n-bit random string (one bit per byte), the 2048-bit
// payloads of §V-E.
func RandomBits(n int, seed int64) []byte {
	rng := rand.New(rng.New(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

// Transmit sends the bit string over the channel, charging the machine's
// guard time per symbol, and returns rate and error statistics.
func Transmit(ch Channel, bits []byte, t Timing) Transmission {
	k := ch.SymbolBits()
	var tr Transmission
	recv := make([]byte, 0, len(bits))
	for i := 0; i < len(bits); i += k {
		// m is this symbol's payload width: k, except for a trailing
		// partial symbol when nbits is not a multiple of k. The sender
		// packs the m bits at the LSB of sym, so the receiver must unpack
		// the low m bits too — decoding all k MSB-down would read every
		// tail bit from the wrong position.
		m := k
		if rem := len(bits) - i; rem < m {
			m = rem
		}
		sym := 0
		for j := 0; j < m; j++ {
			sym = sym<<1 | int(bits[i+j])
		}
		r := ch.Round(sym)
		tr.Symbols++
		tr.Cycles += r.Cycles + t.GuardCycles
		tr.Accesses += r.Accesses
		tr.Measured += r.Measured
		if r.VictimMiss {
			tr.VictimMisses++
		}
		for j := m - 1; j >= 0; j-- {
			recv = append(recv, byte(r.Decoded>>j)&1)
		}
	}
	tr.Bits = len(bits)
	tr.ErrorRate = stats.ErrorRate(bits, recv)
	tr.Seconds = float64(tr.Cycles) / (t.FreqGHz * 1e9)
	if tr.Seconds > 0 {
		tr.BitRateMbps = float64(tr.Bits) / tr.Seconds / 1e6
	}
	return tr
}

// MeasureOnMachine builds the channel for the machine's L1 set and
// transmits `repeats` random strings of nbits bits (the paper sends a
// 2048-bit string 100 times), returning the mean transmission.
func MeasureOnMachine(m Machine, stealthy bool, symbolBits, nbits, repeats int, seed int64) (Transmission, error) {
	cfg := ChannelConfig{
		Ways:       m.L1Ways,
		SymbolBits: symbolBits,
		Policy:     "lru", // the paper's channels target the LRU-state abstraction
		Timing:     m.Timing,
		NoiseEvict: m.NoiseEvict,
		Seed:       seed,
	}
	var ch Channel
	var err error
	if stealthy {
		ch, err = NewStealthyStreamline(cfg)
	} else {
		ch, err = NewLRUAddrChannel(cfg)
	}
	if err != nil {
		return Transmission{}, err
	}
	var agg Transmission
	for r := 0; r < repeats; r++ {
		bits := RandomBits(nbits, seed+int64(r)*31)
		tr := Transmit(ch, bits, m.Timing)
		agg.Bits += tr.Bits
		agg.Symbols += tr.Symbols
		agg.Cycles += tr.Cycles
		agg.Accesses += tr.Accesses
		agg.Measured += tr.Measured
		agg.VictimMisses += tr.VictimMisses
		agg.ErrorRate += tr.ErrorRate
		agg.Seconds += tr.Seconds
	}
	agg.ErrorRate /= float64(repeats)
	if agg.Seconds > 0 {
		agg.BitRateMbps = float64(agg.Bits) / agg.Seconds / 1e6
	}
	return agg, nil
}

// SweepPoint is one (error rate, bit rate) sample of the Figure 5 curves.
type SweepPoint struct {
	GuardScale  float64
	BitRateMbps float64
	ErrorRate   float64
}

// RateErrorSweep generates the bit-rate / error-rate tradeoff of Figure 5
// by scaling the synchronization guard time: a shorter guard raises the
// bit rate but degrades sender/receiver synchronization, which appears as
// an increased interference rate (noise ∝ 1/scale²).
func RateErrorSweep(m Machine, stealthy bool, scales []float64, nbits int, seed int64) []SweepPoint {
	var out []SweepPoint
	for _, sc := range scales {
		mm := m
		mm.Timing.GuardCycles = int(float64(m.Timing.GuardCycles) * sc)
		mm.NoiseEvict = m.NoiseEvict / (sc * sc)
		tr, err := MeasureOnMachine(mm, stealthy, 2, nbits, 3, seed)
		if err != nil {
			continue
		}
		out = append(out, SweepPoint{GuardScale: sc, BitRateMbps: tr.BitRateMbps, ErrorRate: tr.ErrorRate})
	}
	return out
}
