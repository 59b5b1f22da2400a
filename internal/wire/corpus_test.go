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

// TestRegenerateShardedFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzUnmarshalSharded from the same golden encoder the
// fuzzer seeds with. It is a no-op unless PINT_REGEN_CORPUS=1 — run it
// after a deliberate format change, then commit the result; CI replays
// these files on every PR (go test -run='^Fuzz'), so a format drift that
// breaks old corpora fails loudly.
func TestRegenerateShardedFuzzCorpus(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/fuzz/")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalSharded")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(seedName string, shards uint8, data []byte) {
		content := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%s)\n",
			rune(shards), strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustMarshal := func(batch []core.PacketDigest) []byte {
		data, err := Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := mustMarshal([]core.PacketDigest{{Flow: 7, PktID: 99, PathLen: 12, Digest: 0xABCD}})
	many := mustMarshal(sampleBatch(64))
	extreme := mustMarshal([]core.PacketDigest{
		{Flow: ^core.FlowKey(0), PktID: ^uint64(0), PathLen: MaxPathLen, Digest: ^uint64(0)},
		{Flow: 0, PktID: 0, PathLen: 1, Digest: 0},
	})
	write("seed-empty-batch", 1, mustMarshal(nil))
	write("seed-one-packet", 4, one)
	write("seed-many-packets", 16, many)
	write("seed-many-truncated", 16, many[:len(many)-1])
	write("seed-many-trailing", 16, append(append([]byte(nil), many...), 0x00))
	write("seed-extreme-values", 3, extreme)
	write("seed-empty-input", 0, nil)
	write("seed-hostile-count", 2, []byte{'P', 'D', Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	write("seed-nonminimal-varint", 2, []byte{'P', 'D', Version, 1, 0x80, 0x00, 0, 0, 0})
	write("seed-bad-magic", 8, []byte{'X', 'D', Version, 0})
}

// TestRegenerateHandshakeFuzzCorpus rewrites the committed seed corpus
// under testdata/fuzz/FuzzHandshake from the handshake encoder — the
// tenant-less and tenant forms plus the hostile shapes the decoder must
// refuse, the two retired versions among them. Same protocol as the
// sharded regenerator above: no-op unless PINT_REGEN_CORPUS=1; rerun
// after a deliberate handshake change and commit the result so CI
// replays every shape on every PR.
func TestRegenerateHandshakeFuzzCorpus(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/fuzz/")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzHandshake")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(seedName string, data []byte) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	write("seed-v2", asV2(plain))
	write("seed-v2-noname", asV2(mustHello(Hello{Exporter: 1})))
	write("seed-v3", v3)
	write("seed-v3-max-labels", longest)
	write("seed-v3-truncated-tenant", v3[:len(v3)-2])
	write("seed-v3-missing-tenant-len", v3[:helloFixedLen+7])
	write("seed-v3-empty-tenant", plain)
	write("seed-v1-refused", []byte{'P', 'I', 'N', 'T', 1, 0, 0, 0, 0, 0, 0, 0, 0})
	write("seed-trailing-garbage", append(append([]byte(nil), v3...), 0xAA, 0xBB))
}
