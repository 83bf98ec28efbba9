// Package serde defines the serializer/deserializer abstraction Samza tasks
// use for message payloads and local-state values, mirroring Samza's Serde
// API (§2). Schema-driven codecs (Avro) live in internal/avro; this package
// provides the generic codecs, including the gob-based object serde that
// stands in for the paper's Kryo serializer.
package serde

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Serde converts between in-memory values and byte slices. Implementations
// must be safe for concurrent use.
type Serde interface {
	// Name identifies the serde in job configuration.
	Name() string
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// ErrWrongType is returned when a typed serde is handed an incompatible value.
var ErrWrongType = errors.New("serde: wrong value type")

// StringSerde encodes Go strings as raw UTF-8 bytes.
type StringSerde struct{}

// Name implements Serde.
func (StringSerde) Name() string { return "string" }

// Encode implements Serde.
func (StringSerde) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("%w: want string, got %T", ErrWrongType, v)
	}
	return []byte(s), nil
}

// Decode implements Serde.
func (StringSerde) Decode(data []byte) (any, error) { return string(data), nil }

// Int64Serde encodes int64 values as 8 big-endian bytes, preserving numeric
// order under lexicographic byte comparison (useful for range scans).
type Int64Serde struct{}

// Name implements Serde.
func (Int64Serde) Name() string { return "int64" }

// Encode implements Serde.
func (Int64Serde) Encode(v any) ([]byte, error) {
	n, ok := v.(int64)
	if !ok {
		return nil, fmt.Errorf("%w: want int64, got %T", ErrWrongType, v)
	}
	var b [8]byte
	// Bias by the sign bit so negative values sort below positives.
	binary.BigEndian.PutUint64(b[:], uint64(n)^(1<<63))
	return b[:], nil
}

// Decode implements Serde.
func (Int64Serde) Decode(data []byte) (any, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("serde: int64 payload has %d bytes", len(data))
	}
	return int64(binary.BigEndian.Uint64(data) ^ (1 << 63)), nil
}

// BytesSerde passes byte slices through unchanged.
type BytesSerde struct{}

// Name implements Serde.
func (BytesSerde) Name() string { return "bytes" }

// Encode implements Serde.
func (BytesSerde) Encode(v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("%w: want []byte, got %T", ErrWrongType, v)
	}
	return b, nil
}

// Decode implements Serde.
func (BytesSerde) Decode(data []byte) (any, error) { return data, nil }

// JSONSerde encodes arbitrary values with encoding/json. Decoded values use
// json's generic types (map[string]any, []any, float64, string, bool, nil).
type JSONSerde struct{}

// Name implements Serde.
func (JSONSerde) Name() string { return "json" }

// Encode implements Serde.
func (JSONSerde) Encode(v any) ([]byte, error) { return json.Marshal(v) }

// Decode implements Serde.
func (JSONSerde) Decode(data []byte) (any, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// TypedJSON encodes one message type with encoding/json: Encode takes a *T
// and Decode returns a fresh *T. It is the serde of every control stream
// (metrics snapshots, trace batches, profile batches, alerts), each
// registered under its own name, so the stream's records decode straight
// into the publisher's struct and its JSON field tags are the wire format.
type TypedJSON[T any] struct{ name string }

// NewTypedJSON returns the JSON serde for *T under the given name.
func NewTypedJSON[T any](name string) TypedJSON[T] { return TypedJSON[T]{name: name} }

// Name implements Serde.
func (s TypedJSON[T]) Name() string { return s.name }

// Encode implements Serde.
func (s TypedJSON[T]) Encode(v any) ([]byte, error) {
	m, ok := v.(*T)
	if !ok {
		return nil, fmt.Errorf("%w: want %T, got %T", ErrWrongType, m, v)
	}
	return s.EncodeMsg(m)
}

// Decode implements Serde.
func (s TypedJSON[T]) Decode(data []byte) (any, error) { return s.DecodeMsg(data) }

// EncodeMsg is Encode for a caller that already holds a *T.
func (s TypedJSON[T]) EncodeMsg(m *T) ([]byte, error) { return json.Marshal(m) }

// DecodeMsg is Decode returning the *T itself.
func (s TypedJSON[T]) DecodeMsg(data []byte) (*T, error) {
	m := new(T)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// GobSerde is a generic reflective object serde. It is the Go analog of the
// Kryo serializer the paper's SamzaSQL prototype used inside its key-value
// store, and like Kryo it is substantially slower than a schema-driven
// codec — the property behind the paper's ~2x join slowdown (§5.1).
//
// Values round-trip as []any rows (the SamzaSQL tuple representation).
type GobSerde struct{}

// Name implements Serde.
func (GobSerde) Name() string { return "gob" }

// gobRow wraps the row so gob records concrete element types.
type gobRow struct{ Fields []any }

func init() {
	gob.Register(gobRow{})
	gob.Register([]any{})
	gob.Register(map[string]any{})
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(true)
}

// Encode implements Serde.
func (GobSerde) Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if row, ok := v.([]any); ok {
		if err := enc.Encode(gobRow{Fields: row}); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	if err := enc.Encode(gobRow{Fields: []any{v}}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements Serde.
func (GobSerde) Decode(data []byte) (any, error) {
	var row gobRow
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&row); err != nil {
		return nil, err
	}
	return row.Fields, nil
}

// registryMu guards the process-wide serde registry used to resolve serde
// names found in job configuration.
var (
	registryMu sync.RWMutex
	registry   = map[string]Serde{}
)

// Register installs a serde under its Name. Later registrations replace
// earlier ones, letting tests inject instrumented serdes.
func Register(s Serde) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[s.Name()] = s
}

// Lookup resolves a serde name from the registry.
func Lookup(name string) (Serde, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("serde: unknown serde %q", name)
	}
	return s, nil
}

func init() {
	Register(StringSerde{})
	Register(Int64Serde{})
	Register(BytesSerde{})
	Register(JSONSerde{})
	Register(GobSerde{})
}
