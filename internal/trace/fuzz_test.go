package trace_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"civect/internal/trace"
)

// oneBlock frames payload as the only block of a journal under header
// (magic through header CRC), with a trailer counting no events: the
// CRCs hold, so the record decoder and the replayer meet payload.
func oneBlock(header, payload []byte) []byte {
	out := append([]byte(nil), header...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	tb := []byte{0, 0, 0} // no more blocks; zero events, last cycle 0
	out = append(out, tb...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(tb))
}

// FuzzTraceReader feeds arbitrary bytes to NewReader, Next to the end
// and Replay, both as given and framed as one CRC-valid block (so the
// decoder rather than the CRC meets the damage). The contract is an
// error or a clean replay; never a panic, a hang or an allocation the
// bytes present do not back. The seeds are TestTruncatedJournal's and
// TestCorruptJournal's damage shapes over a recorded journal,
// TestForgedBlockLength's input, and a citrace record file in the
// corpus.
func FuzzTraceReader(f *testing.F) {
	j := smallJournal(f)
	f.Add(j)
	for cut := 0; cut < len(j); cut += 41 {
		f.Add(j[:cut])
	}
	for pos := 0; pos < len(j); pos += 37 {
		bad := bytes.Clone(j)
		bad[pos] ^= 0x41
		f.Add(bad)
	}
	// The header is magic, four bytes, the name's length and name (one
	// varint byte: smallJournal's name is short), and its CRC.
	header := j[:4+4+1+int(j[8])+4]
	// A block declared at the reader's cap with ten bytes behind it.
	f.Add(append(binary.AppendUvarint(bytes.Clone(header), 16<<20), make([]byte, 10)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, oneBlock(header, data)} {
			r, err := trace.NewReader(bytes.NewReader(in))
			if err != nil {
				continue
			}
			trace.Replay(r)
		}
	})
}
