package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a CPU profile written by runtime/pprof into host
// nanoseconds of self time per layer. The profile is a gzipped
// profile.proto message; the few fields the fold needs are decoded by
// hand because the module may import only the standard library.

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1 // Profile.sample_type: ValueType
	profSample      = 2 // Profile.sample: Sample
	profLocation    = 4 // Profile.location: Location
	profFunction    = 5 // Profile.function: Function
	profStringTable = 6 // Profile.string_table: string

	valueTypeType = 1 // ValueType.type: string index

	sampleLocationID = 1 // Sample.location_id: packed uint64
	sampleValue      = 2 // Sample.value: packed int64
	sampleLabel      = 3 // Sample.label: Label

	labelKey = 1 // Label.key: string index
	labelStr = 2 // Label.str: string index

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line: Line

	lineFunctionID = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name: string index
)

// otherLayer collects every frame outside repro/internal: the Go runtime,
// the standard library and the benchmark's own code.
const otherLayer = "runtime"

// layerOf maps a profiled function name to its layer: the package
// directly under repro/internal ("repro/internal/lint/load.F" is "lint"),
// or otherLayer for anything else.
func layerOf(fn string) string {
	// The package path ends at the first '.' after its last '/'; a method
	// receiver "(*T)" or a generic instantiation "[...]" may hold '/' and
	// '.' of its own, so cut the name there first.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok || rest == "" {
		return otherLayer
	}
	layer, _, _ := strings.Cut(rest, "/")
	return layer
}

// pbField is one decoded protobuf field: a varint/fixed value or the raw
// bytes of a length-delimited one.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields decodes the top-level fields of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = pbVarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return nil, errTruncated
			}
			for i := size - 1; i >= 0; i-- {
				f.value = f.value<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one base-128 varint, returning its length (0 when the
// input ends inside it).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts returns the integers of a repeated scalar field, which an encoder
// may write packed (one length-delimited run) or one field per value.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// foldProfile returns the CPU nanoseconds of self time per layer over the
// samples of a gzipped CPU profile that carry the string label key=val.
// Self time goes to the innermost frame of each sample's leaf location;
// when the compiler inlined that function into a caller from another
// package, the time still goes to the inlined function's own package.
func foldProfile(gz []byte, key, val string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	var valueTypes []uint64             // string index of each sample value's type
	funcName := make(map[uint64]uint64) // function ID -> name string index
	leafFunc := make(map[uint64]uint64) // location ID -> innermost function ID
	var rawSamples [][]byte
	for _, f := range fields {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ uint64
			for _, s := range sub {
				if s.num == valueTypeType {
					typ = s.value
				}
			}
			valueTypes = append(valueTypes, typ)
		case profFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case functionID:
					id = s.value
				case functionName:
					name = s.value
				}
			}
			funcName[id] = name
		case profLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			first := true
			for _, s := range sub {
				switch {
				case s.num == locationID:
					id = s.value
				case s.num == locationLine && first:
					// Line[0] is the innermost of the inlined frames.
					first = false
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == lineFunctionID {
							fn = l.value
						}
					}
				}
			}
			leafFunc[id] = fn
		case profSample:
			rawSamples = append(rawSamples, f.bytes)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// CPU profiles carry (samples/count, cpu/nanoseconds); use the cpu one.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make(map[string]int64)
	for _, b := range rawSamples {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		labelled := false
		for _, f := range sub {
			switch f.num {
			case sampleLocationID:
				v, err := pbInts(f)
				if err != nil {
					return nil, err
				}
				locs = append(locs, v...)
			case sampleValue:
				v, err := pbInts(f)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v...)
			case sampleLabel:
				lab, err := pbFields(f.bytes)
				if err != nil {
					return nil, err
				}
				var k, v uint64
				for _, l := range lab {
					switch l.num {
					case labelKey:
						k = l.value
					case labelStr:
						v = l.value
					}
				}
				labelled = labelled || (str(k) == key && str(v) == val)
			}
		}
		if !labelled || len(locs) == 0 || vi >= len(vals) {
			continue
		}
		out[layerOf(str(funcName[leafFunc[locs[0]]]))] += int64(vals[vi])
	}
	return out, nil
}
