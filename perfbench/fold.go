package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// The profile folder: it reads a runtime/pprof CPU profile (gzipped
// profile.proto) and attributes every sample to one layer.
//
//   - A sample's owner is its innermost frame that is either in
//     repro/internal/<pkg> (<pkg>.share) or in the benchmark itself
//     (harness.share); packages outside shareLayers and samples with
//     neither kind of frame go to other.share.
//   - A sample whose leaf frame is in the Go runtime goes to one of
//     runtime.{sched,mem,maps,memmove}_share by what that frame does,
//     unless its owner is the benchmark: a copy into a send buffer is
//     a memmove, but it is the benchmark's work, not the program's.
//   - Any other sample goes to its owner.
//
// The shares are fractions of all samples and sum to 1.

// foldProfile decodes one CPU profile and adds its sample counts per
// metric name to counts.
func foldProfile(data []byte, counts map[string]int64) error {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return err
		}
	}
	p, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				n := p.funcName[fid]
				if n < 0 || n >= int64(len(p.strings)) {
					return errors.New("fold: function name outside the string table")
				}
				frames = append(frames, p.strings[n])
			}
		}
		counts[classifyStack(frames)] += s.count
	}
	return nil
}

// sharesOf turns folded sample counts into shares of the total, with
// every layer present, and checks that they sum to 1.
func sharesOf(counts map[string]int64) (map[string]float64, int64, error) {
	shares := make(map[string]float64, len(shareLayers)+len(runtimeShares))
	for _, l := range shareLayers {
		shares[l+".share"] = 0
	}
	for _, r := range runtimeShares {
		shares["runtime."+r+"_share"] = 0
	}
	var total int64
	for _, k := range sortedKeys(counts) {
		total += counts[k]
	}
	if total == 0 {
		return shares, 0, nil
	}
	for _, k := range sortedKeys(counts) {
		shares[k] = float64(counts[k]) / float64(total)
	}
	sum := 0.0
	for _, k := range sortedKeys(shares) {
		sum += shares[k]
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, 0, fmt.Errorf("fold: shares sum to %v, not 1", sum)
	}
	return shares, total, nil
}

// classifyStack names the layer of one sample; frames run leaf first.
func classifyStack(frames []string) string {
	owner := stackOwner(frames)
	if len(frames) > 0 && isRuntimeFrame(frames[0]) && owner != "harness.share" {
		return "runtime." + runtimeCategory(frames[0]) + "_share"
	}
	return owner
}

// stackOwner is the share of the innermost frame in the benchmark or in
// repro/internal; frames run leaf first.
func stackOwner(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "harness.share"
		}
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			for _, l := range shareLayers {
				if l == pkg {
					return pkg + ".share"
				}
			}
			return "other.share"
		}
	}
	return "other.share"
}

func isRuntimeFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/")
}

// runtimeCategory splits runtime leaf frames: bulk byte copies
// (memmove), map hashing, lookup and key compares (maps), allocation,
// zeroing, write barriers and GC (mem), and everything else —
// goroutine handoff, channels, scheduling, locks (sched).
func runtimeCategory(f string) string {
	name := strings.TrimPrefix(f, "runtime.")
	switch {
	case name == "memmove" || name == "duffcopy" || name == "typedmemmove":
		return "memmove"
	case strings.HasPrefix(f, "internal/runtime/maps."), strings.HasPrefix(name, "map"),
		strings.Contains(name, "hash"), strings.HasPrefix(name, "memequal"),
		name == "strequal" || name == "interequal" || name == "efaceeq" || name == "ifaceeq":
		return "maps"
	}
	for _, s := range memFrames {
		if strings.Contains(name, s) {
			return "mem"
		}
	}
	return "sched"
}

// memFrames are substrings of runtime functions that allocate, zero,
// run write barriers or collect garbage.
var memFrames = []string{
	"malloc", "newobject", "makeslice", "growslice", "newarray", "memclr", "duffzero",
	"gc", "GC", "mark", "scan", "sweep", "heap", "span", "mcache", "mcentral",
	"Barrier", "wbBuf", "greyobject", "shade", "typePointers", "scavenge", "pageAlloc",
	"nextFree", "findObject", "sysAlloc", "sysUnused", "sysUsed", "madvise", "Bits",
}

// profile is the part of profile.proto the folder needs.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses profile.proto: Profile.sample = 2,
// Profile.location = 4, Profile.function = 5, Profile.string_table = 6;
// Sample.location_id = 1, Sample.value = 2; Location.id = 1,
// Location.line = 4; Line.function_id = 1; Function.id = 1,
// Function.name = 2.
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2:
			var s profSample
			var vals []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2:
			var id uint64
			var fids []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2:
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fids
		case field == 5 && wire == 2:
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case field == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(data []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("fold: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("fold: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("fold: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("fold: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("fold: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("fold: unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
