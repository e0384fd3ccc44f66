package fastmpc

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"

	"mpcdash/internal/core"
)

// keyFormat versions the key's byte layout. The key is also the table
// identity /v1/session reports (table_key), so bump it only when the table
// semantics change (solver objective, binning): equal keys must keep
// meaning equal tables across releases.
const keyFormat = "mpcdash/fastmpc/table/v2\x00"

// TableKey returns the content-addressed identity of the decision table
// Build would produce for (opt, spec): a 64-bit FNV-1a hash over every
// input the enumeration depends on — the manifest (ladder, chunk geometry,
// VBR multipliers), the QoE weights, the quality function identity, the
// player configuration (buffer cap, horizon, terminal-buffer weight) and
// the bin spec. Two optimizers with equal content hash equally regardless
// of pointer identity, which is what lets N fleet populations sharing a
// configuration share one table build. qualityID must come from
// model.QualityID; keys for distinct quality functions must differ.
func TableKey(opt *core.Optimizer, qualityID string, spec BinSpec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	io.WriteString(h, keyFormat)
	io.WriteString(h, qualityID)
	h.Write([]byte{0})

	m := opt.Manifest
	writeInt(m.ChunkCount)
	writeFloat(m.ChunkDuration)
	writeInt(m.Levels())
	for _, kbps := range m.Ladder {
		writeFloat(kbps)
	}
	for k := 0; k < m.ChunkCount; k++ {
		writeFloat(m.SizeMultiplier(k))
	}

	writeFloat(opt.Weights.Lambda)
	writeFloat(opt.Weights.Mu)
	writeFloat(opt.Weights.MuS)
	writeFloat(opt.BufferMax)
	writeInt(opt.Horizon)
	writeFloat(opt.TerminalBufferWeight)

	writeInt(spec.BufferBins)
	writeInt(spec.RateBins)
	writeFloat(spec.BufferMax)
	writeFloat(spec.RateMin)
	writeFloat(spec.RateMax)
	return h.Sum64()
}
