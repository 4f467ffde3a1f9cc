package serve

import (
	"encoding/json"
	"strconv"

	"repro/internal/obs"
)

// appendEventJSON appends the JSON encoding of ev to b, byte for byte
// what encoding/json writes for it (without Encoder's trailing newline):
// obs.Event's fields in struct order, empty omitempty fields left out.
// It reflects on nothing, so encoding one streamed event costs a few
// appends.
func appendEventJSON(b []byte, ev *obs.Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, ev.Kind)
	b = appendStringField(b, `,"proc":`, ev.Proc)
	b = appendStringField(b, `,"cat":`, ev.Cat)
	b = appendStringField(b, `,"name":`, ev.Name)
	b = appendStringField(b, `,"detail":`, ev.Detail)
	b = appendIntField(b, `,"span":`, int64(ev.Span))
	b = appendIntField(b, `,"parent":`, int64(ev.Parent))
	b = appendIntField(b, `,"gen":`, ev.Gen)
	return append(b, '}')
}

// appendStringField appends an omitempty string field.
func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

// appendIntField appends an omitempty integer field.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendJSONString appends s as a JSON string. Printable ASCII other
// than the characters encoding/json escapes (", \ and the HTML-unsafe
// <, > and &) is copied verbatim; any other string goes through
// encoding/json, so control bytes, invalid UTF-8 and U+2028/U+2029 come
// out exactly as it writes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
