package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"time"
)

// cpuProfile runs f under a CPU profile of this process and returns the
// CPU time of all samples and of the samples with the function fn (its
// full name, as "repro/internal/index/aabbtree.BuildSoA") on the stack.
func cpuProfile(fn string, f func() error) (total, under time.Duration, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, 0, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return 0, 0, ferr
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return 0, 0, fmt.Errorf("cpu profile: %w", err)
	}
	return p.cpuUnder(fn)
}

// profile is the part of a pprof profile.proto message cpuUnder reads.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location ID → function IDs, inlined frames included
	funcNames map[uint64]int64    // function ID → string table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// cpuUnder sums the last sample value (CPU nanoseconds in a Go CPU
// profile) over all samples and over those with fn on the stack.
func (p *profile) cpuUnder(fn string) (total, under time.Duration, err error) {
	for _, s := range p.samples {
		if len(s.values) == 0 {
			return 0, 0, errors.New("cpu profile: sample without values")
		}
		v := time.Duration(s.values[len(s.values)-1])
		total += v
	stack:
		for _, l := range s.locs {
			for _, f := range p.locFuncs[l] {
				if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strings) && p.strings[i] == fn {
					under += v
					break stack
				}
			}
		}
	}
	return total, under, nil
}

// parseProfile decodes the fields of profile.proto that cpuUnder needs:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, data)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, data); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field, which an encoder may write
// one value at a time (v) or packed (data).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField calls f for every field of a protobuf message: v holds varint
// and fixed-size values, data the payload of length-delimited fields (nil
// for the other wire types).
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("short fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
