package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonenc"
)

// The wire codec: what the three hot routes need of JSON, written for their
// schemas. encoding/json stays the format's reference — the encoders write
// exactly the bytes writeJSON's json.Encoder writes for the same value and
// leave a value JSON cannot carry (a NaN or ±Inf score or posterior) to it;
// splitBatch finds in a /v1/label/batch body exactly the elements a
// json.Decoder would copy into a []json.RawMessage and leaves a body it does
// not accept to decodeBatch, which asks the json.Decoder. wire_test.go holds
// both to the reference on generated and fuzzed values.

// wireBufs recycles response buffers. One that a large batch answer grew past
// maxPooledWireBuf is dropped, so the pool does not pin the largest response
// ever written.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledWireBuf = 64 << 10

// writeResult answers 200 with v encoded by appendV, as one Write. When
// appendV declines the value, writeJSON answers instead.
func writeResult[V any](w http.ResponseWriter, v V, appendV func([]byte, V) ([]byte, bool)) {
	bp := wireBufs.Get().(*[]byte)
	b, ok := appendV((*bp)[:0], v)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		b = append(b, '\n') // json.Encoder ends every value with one
		_, _ = w.Write(b)   // as with writeJSON, a client that went away is not an error to report
	}
	if cap(b) <= maxPooledWireBuf {
		*bp = b
		wireBufs.Put(bp)
	}
	if !ok {
		writeJSON(w, http.StatusOK, v)
	}
}

func appendPredictResult(b []byte, r PredictResult) ([]byte, bool) {
	if !jsonenc.Finite(r.Score) {
		return b, false
	}
	b = jsonenc.AppendString(append(b, `{"model":`...), r.Model, false)
	b = strconv.AppendInt(append(b, `,"version":`...), int64(r.Version), 10)
	b = jsonenc.AppendFloat(append(b, `,"score":`...), r.Score)
	b = strconv.AppendBool(append(b, `,"positive":`...), r.Positive)
	b = strconv.AppendInt(append(b, `,"batch_size":`...), int64(r.BatchSize), 10)
	return append(b, '}'), true
}

func appendLabelResult(b []byte, r LabelResult) ([]byte, bool) {
	b = append(b, '{')
	if r.Posterior != nil {
		if !jsonenc.Finite(*r.Posterior) {
			return b, false
		}
		b = append(jsonenc.AppendFloat(append(b, `"posterior":`...), *r.Posterior), ',')
	}
	b = append(b, `"votes":`...)
	if r.Votes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range r.Votes {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendString(append(b, `{"lf":`...), v.LF, false)
			b = jsonenc.AppendString(append(b, `,"category":`...), v.Category, false)
			b = strconv.AppendInt(append(b, `,"vote":`...), int64(v.Vote), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}'), true
}

func appendLabelResults(b []byte, rs []LabelResult) ([]byte, bool) {
	if rs == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendLabelResult(b, r); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// readBody reads a request body of at most maxBodyBytes into a buffer of its
// own — never a pooled one: it is handed to Config.Decode, which may keep it.
// The buffer is sized from Content-Length when the request states one, with a
// spare byte so that the read which finds the end does not grow it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512) // io.ReadAll's start, for a body of unstated length
	if 0 < r.ContentLength && r.ContentLength <= maxBodyBytes {
		size = r.ContentLength + 1
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// maxWireDepth is how deep an element of a batch may nest and still be split
// by splitBatch; a deeper one is the json.Decoder's to judge.
const maxWireDepth = 32

// splitBatch finds the elements of a /v1/label/batch body — a JSON array — in
// one pass that checks the JSON grammar as it goes, and returns them as
// sub-slices of body: the bytes a json.Decoder would copy into a
// []json.RawMessage. It stops where element limit+1 starts and reports over.
// ok is false when the body is anything but a well-formed array of values
// nested at most maxWireDepth deep with only whitespace after it; what is
// wrong with it, if anything, is decodeBatch's to say.
func splitBatch(body []byte, limit int) (elems []json.RawMessage, over, ok bool) {
	i := skipSpace(body, 0)
	if peek(body, i) != '[' {
		return nil, false, false
	}
	if i = skipSpace(body, i+1); peek(body, i) == ']' {
		i++
	} else {
		for {
			if len(elems) == limit {
				return nil, true, true
			}
			end := skipValue(body, i, maxWireDepth)
			if end < 0 {
				return nil, false, false
			}
			// Capacity ends with the element: a decoder that appends to its
			// input must not write into the next record.
			elems = append(elems, body[i:end:end])
			i = skipSpace(body, end)
			if peek(body, i) == ']' {
				i++
				break
			}
			if peek(body, i) != ',' {
				return nil, false, false
			}
			i = skipSpace(body, i+1)
		}
	}
	if skipSpace(body, i) != len(body) {
		return nil, false, false
	}
	return elems, false, true
}

// decodeBatch is the reference splitBatch declines to: the json.Decoder, and
// its error for a body that is not a JSON array. A decoder reads one value and
// stops, so bytes after the array are looked for here; json.Unmarshal, which
// reads to the end, words that refusal as /v1/label's decoder would.
func decodeBatch(body []byte) ([]json.RawMessage, error) {
	var raw []json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	if skipSpace(body, int(dec.InputOffset())) != len(body) {
		return nil, json.Unmarshal(body, &raw)
	}
	return raw, nil
}

// peek returns data[i], or 0 — which no rule accepts — at the end.
func peek(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value that starts at
// data[i], or -1 when no well-formed value nested at most depth deep does.
func skipValue(data []byte, i, depth int) int {
	switch c := peek(data, i); {
	case c == '"':
		return skipString(data, i)
	case c == '{' || c == '[':
		if depth == 0 {
			return -1
		}
		closer := c + 2 // ']' follows '[' and '}' follows '{' by two in ASCII
		if i = skipSpace(data, i+1); peek(data, i) == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i = skipString(data, i); i < 0 {
					return -1
				}
				if i = skipSpace(data, i); peek(data, i) != ':' {
					return -1
				}
				i = skipSpace(data, i+1)
			}
			if i = skipValue(data, i, depth-1); i < 0 {
				return -1
			}
			switch i = skipSpace(data, i); peek(data, i) {
			case closer:
				return i + 1
			case ',':
				i = skipSpace(data, i+1)
			default:
				return -1
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		return skipNumber(data, i)
	case c == 't':
		return skipLiteral(data, i, "true")
	case c == 'f':
		return skipLiteral(data, i, "false")
	case c == 'n':
		return skipLiteral(data, i, "null")
	}
	return -1
}

func skipLiteral(data []byte, i int, lit string) int {
	if len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit {
		return i + len(lit)
	}
	return -1
}

// skipString skips a string literal by encoding/json's rules: any byte from
// 0x20 up but '"' and '\' stands for itself (UTF-8 is not checked), and an
// escape is one of \" \\ \/ \b \f \n \r \t or \u and four hex digits.
func skipString(data []byte, i int) int {
	if peek(data, i) != '"' {
		return -1
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			i++
			switch peek(data, i) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if h := peek(data, i+k); !('0' <= h && h <= '9' || 'a' <= h|0x20 && h|0x20 <= 'f') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// skipNumber skips a number of the JSON grammar: no leading zeros, no bare
// '.', no leading '+'.
func skipNumber(data []byte, i int) int {
	digits := func() bool {
		start := i
		for c := peek(data, i); '0' <= c && c <= '9'; c = peek(data, i) {
			i++
		}
		return i > start
	}
	if peek(data, i) == '-' {
		i++
	}
	if peek(data, i) == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if peek(data, i) == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if peek(data, i)|0x20 == 'e' {
		i++
		if c := peek(data, i); c == '+' || c == '-' {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}
