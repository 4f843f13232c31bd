package adversary

import (
	"encoding/binary"

	"qswitch/internal/packet"
)

// memoCap bounds a Memo's table. A full table is cleared and refills, so a
// long hunt holds at most this many answers at once.
const memoCap = 1 << 14

type memoAnswer struct {
	ratio float64
	ok    bool
}

// Memo wraps eval so that a sequence it has already judged is answered from
// a table instead of being judged again. Local search revisits sequences
// often: no-op mutations (a retarget to the port a packet already has, a
// revalue at MaxValue 1) and climbs that wander back each hand eval a
// candidate it has seen.
//
// The table is keyed on the sequence's full content — every field of every
// packet, IDs included — never on a hash alone, so a hit is exact. It holds
// at most 16,384 answers and is cleared when full. eval must be a pure
// function of the sequence (see Ratio). The wrapper calls eval on every
// miss, in call order, so the answers it gives are eval's own. Like the
// evaluators it wraps, the returned Ratio is not safe for concurrent use.
func Memo(eval Ratio) Ratio {
	table := make(map[string]memoAnswer)
	var key []byte
	return func(seq packet.Sequence) (float64, bool) {
		key = appendMemoKey(key[:0], seq)
		if a, hit := table[string(key)]; hit {
			return a.ratio, a.ok
		}
		r, ok := eval(seq)
		if len(table) >= memoCap {
			clear(table)
		}
		table[string(key)] = memoAnswer{r, ok}
		return r, ok
	}
}

// appendMemoKey appends seq's content to key as a string of varints, five a
// packet. Varints are self-delimiting, so distinct sequences get distinct
// keys.
func appendMemoKey(key []byte, seq packet.Sequence) []byte {
	for i := range seq {
		p := &seq[i]
		key = binary.AppendVarint(key, p.ID)
		key = binary.AppendVarint(key, int64(p.Arrival))
		key = binary.AppendVarint(key, int64(p.In))
		key = binary.AppendVarint(key, int64(p.Out))
		key = binary.AppendVarint(key, p.Value)
	}
	return key
}
