package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of CPU-profile samples. A sample belongs to the
// layer of its leaf frame: april/internal/<pkg> is layer <pkg>, the Go
// runtime (runtime, runtime/..., internal/runtime/..., which includes
// allocation and the garbage collector) is layer "go", and this
// benchmark's own code is layer "bench". A leaf in any other package
// (sync, hash/fnv, sort, ...) is library code run on behalf of its
// caller, so the sample goes to the nearest frame up the stack that has
// a layer; a stack with none is "other".

// frameLayer returns the layer of one frame's function name, or "" for
// a package that has none.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "april/internal/"):
		rest := pkg[len("april/internal/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	case pkg == "main", pkg == "april/perfbench": // the binary; its test build
		return "bench"
	}
	return ""
}

// funcPackage is the import path of a symbol name such as
// "april/internal/sim.(*Machine).Run" or
// "april/internal/harness.MapOccupancy[...].func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stackLayer attributes one sample, given its frames leaf first.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// profileLayers decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and returns the number of samples per layer.
func profileLayers(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.funcName(fid))
			}
		}
		out[stackLayer(frames)] += s.count
	}
	return out, nil
}

// The subset of profile.proto this benchmark reads: samples (location
// ids, leaf first, and the first value, the sample count), locations
// (id and the function of each line, innermost inlined call first) and
// functions (id and name, an index into the string table).
type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64
	funcs    map[uint64]int64
	strings  []string
}

type pprofSample struct {
	locs  []uint64
	count int64
}

func (p *pprofProfile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && i < int64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("profile: malformed protobuf")

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s pprofSample
			first := true
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return scalars(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return scalars(v, data, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks a protobuf message. For a varint field fn gets the
// value; for a length-delimited field it gets the bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// scalars feeds a repeated varint field to fn, whether it arrived as
// one unpacked value (data nil) or packed.
func scalars(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return errProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n is 0 when b holds none.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return v, n
}
