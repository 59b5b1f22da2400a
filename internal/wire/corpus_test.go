package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// writeSeed commits one seed file of a fuzzer's corpus under
// testdata/fuzz/<fuzzer>/seed-<name>; lines are the fuzz arguments in
// the "go test fuzz v1" encoding.
func writeSeed(t *testing.T, fuzzer, name string, lines ...string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzer)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func bytesArg(data []byte) string { return "[]byte(" + strconv.Quote(string(data)) + ")" }

// TestRegenerateDecodeFuzzCorpus rewrites the committed seed corpora of
// the three batch fuzzers — FuzzUnmarshal and FuzzUnmarshalSharded from
// decodeSeeds (one input per rule of the format among them, the refused
// version-1 batch included), FuzzMarshalParity from its marshal-direction
// inputs — through the encoder under test. It is a no-op unless
// PINT_REGEN_CORPUS=1 — run it after a deliberate format change, then
// commit the result. CI regenerates and diffs (the corpora cannot drift
// from the encoder) and replays these files on every PR (go test
// -run='^Fuzz').
func TestRegenerateDecodeFuzzCorpus(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/fuzz/")
	}
	for i, seed := range decodeSeeds(t) {
		writeSeed(t, "FuzzUnmarshal", seed.name, bytesArg(seed.data))
		writeSeed(t, "FuzzUnmarshalSharded", seed.name, fmt.Sprintf("byte(%q)", rune(i%32)), bytesArg(seed.data))
	}
	for i, batch := range [][]core.PacketDigest{sampleBatch(40), adversarialBatch(), testbenchFrame(32)} {
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		writeSeed(t, "FuzzMarshalParity", strconv.Itoa(i+1), bytesArg(data))
	}
	// Read in the marshal direction: eight 25-byte chunks, each a packet's
	// fields (fuzzBatch), crossing every column width.
	fields := make([]byte, 200)
	for i := range fields {
		fields[i] = byte(i * 37)
	}
	writeSeed(t, "FuzzMarshalParity", "0", bytesArg(fields))
}

// TestRegenerateHandshakeFuzzCorpus rewrites the committed seed corpus
// under testdata/fuzz/FuzzHandshake from the handshake encoder — the
// tenant-less and tenant forms plus the hostile shapes the decoder must
// refuse, the two retired versions among them. Same protocol as the
// batch regenerator above: no-op unless PINT_REGEN_CORPUS=1; rerun
// after a deliberate handshake change and commit the result so CI
// replays every shape on every PR.
func TestRegenerateHandshakeFuzzCorpus(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/fuzz/")
	}
	write := func(name string, data []byte) { writeSeed(t, "FuzzHandshake", name, bytesArg(data)) }
	mustHello := func(h Hello) []byte {
		data, err := AppendHello(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := mustHello(Hello{Exporter: 3, PlanHash: 0x1234_5678_9ABC_DEF0, Epoch: 42, Name: "spine-0"})
	v3 := mustHello(Hello{Exporter: 5, PlanHash: 0xFEED_FACE, Epoch: 7, Name: "tor-1-1", Tenant: "team-a"})
	longest := mustHello(Hello{Exporter: ^uint64(0), PlanHash: ^uint64(0), Epoch: ^uint64(0),
		Name: strings.Repeat("n", MaxExporterName), Tenant: strings.Repeat("t", MaxTenantName)})
	// The version-2 layout (no tenant length byte), as a pre-tenancy
	// exporter sent it: refused by version.
	asV2 := func(hello []byte) []byte {
		v2 := append([]byte(nil), hello[:len(hello)-1]...)
		v2[4] = 2
		return v2
	}
	write("v2", asV2(plain))
	write("v2-noname", asV2(mustHello(Hello{Exporter: 1})))
	write("v3", v3)
	write("v3-max-labels", longest)
	write("v3-truncated-tenant", v3[:len(v3)-2])
	write("v3-missing-tenant-len", v3[:helloFixedLen+7])
	write("v3-empty-tenant", plain)
	write("v1-refused", []byte{'P', 'I', 'N', 'T', 1, 0, 0, 0, 0, 0, 0, 0, 0})
	write("trailing-garbage", append(append([]byte(nil), v3...), 0xAA, 0xBB))
}
