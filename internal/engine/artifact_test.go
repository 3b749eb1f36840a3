package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestDecodeShardRefusesOldSchema asserts that an artifact written under
// schema version 1, whose results still carried one record per dynamic
// RMW, is refused with the schema-version error rather than decoded into
// the current shape.
func TestDecodeShardRefusesOldSchema(t *testing.T) {
	data, err := (&engine.ShardResult{Plan: "fingerprint"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.DecodeShard(data); err != nil {
		t.Fatalf("current-schema artifact refused: %v", err)
	}
	current := fmt.Sprintf(`"schema_version":%d,`, engine.ShardSchemaVersion)
	old := bytes.Replace(data, []byte(current), []byte(`"schema_version":1,`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("envelope has no %s field: %s", current, data)
	}
	_, err = engine.DecodeShard(old)
	want := fmt.Sprintf("artifact schema version 1, this build understands %d", engine.ShardSchemaVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 artifact: err = %v, want %q", err, want)
	}
}
