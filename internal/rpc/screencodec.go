package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/ethtypes"
	"repro/internal/screen"
)

// The daas_screen* codec. Verdicts and envelopes are appended by hand
// and parsed in one pass, but the bytes are exactly those encoding/json
// writes and accepts: FuzzScreenBatchCodec pins both directions to
// it. The parsers only ever see input encoding/json has already
// validated (the server's request envelope, the client's whole
// response body), so they track token boundaries and check nothing
// else.
// A string holding escapes or non-ASCII bytes is unquoted by
// encoding/json, one string at a time.

// maxPooledBuf caps the buffers the server keeps for reuse, so one
// giant request does not pin its memory for good.
const maxPooledBuf = 1 << 20

// bufPool recycles request bodies and response buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// batchScratch is one daas_screenBatch's decoded addresses and
// verdicts, recycled through batchPool.
type batchScratch struct {
	addrs    []ethtypes.Address
	verdicts []screen.Verdict
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// Encoding.

// appendResultHead opens a success envelope; the caller appends the
// result and the closing '}'.
func appendResultHead(dst []byte, id int64) []byte {
	dst = append(dst, `{"jsonrpc":"2.0","id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	return append(dst, `,"result":`...)
}

// appendResult appends a whole success envelope around result, which
// must be json.Marshal output (compact and HTML-escaped, as
// Encoder.Encode would re-emit it).
func appendResult(dst []byte, id int64, result []byte) []byte {
	return append(append(appendResultHead(dst, id), result...), '}')
}

// appendError appends an error envelope.
func appendError(dst []byte, id int64, e *rpcError) []byte {
	dst = append(dst, `{"jsonrpc":"2.0","id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, `,"error":{"code":`...)
	dst = strconv.AppendInt(dst, int64(e.Code), 10)
	dst = append(dst, `,"message":`...)
	dst = appendJSONString(dst, e.Message)
	return append(dst, `}}`...)
}

// appendVerdict appends one daas_screen verdict object. Record fields
// are omitted for clean addresses and snapshotAge while it is 0, so a
// mostly-clean batch from a healthy server stays compact.
func appendVerdict(dst []byte, v *screen.Verdict, age uint64) []byte {
	dst = append(dst, `{"address":"0x`...)
	dst = hex.AppendEncode(dst, v.Address[:])
	if !v.Listed {
		dst = append(dst, `","listed":false`...)
	} else {
		dst = append(dst, `","listed":true,"kind":`...)
		dst = appendJSONString(dst, v.Kind.String())
		if v.Reason != "" {
			dst = append(dst, `,"reason":`...)
			dst = appendJSONString(dst, v.Reason)
		}
		if v.Family != "" {
			dst = append(dst, `,"family":`...)
			dst = appendJSONString(dst, v.Family)
		}
		if v.Tainted {
			dst = append(dst, `,"tainted":true`...)
		}
		if v.StaticFlagged {
			dst = append(dst, `,"staticFlagged":true`...)
		}
	}
	if age > 0 {
		dst = append(dst, `,"snapshotAge":`...)
		dst = strconv.AppendUint(dst, age, 10)
	}
	return append(dst, '}')
}

// appendVerdicts appends a daas_screenBatch result array.
func appendVerdicts(dst []byte, vs []screen.Verdict, age uint64) []byte {
	dst = append(dst, '[')
	for i := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendVerdict(dst, &vs[i], age)
	}
	return append(dst, ']')
}

// appendScreenBatchRequest appends the daas_screenBatch request body
// for addrs.
func appendScreenBatchRequest(dst []byte, id int64, addrs []ethtypes.Address) []byte {
	dst = append(dst, `{"jsonrpc":"2.0","id":`...)
	dst = strconv.AppendInt(dst, id, 10)
	dst = append(dst, `,"method":"daas_screenBatch","params":[`...)
	for i := range addrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"0x`...)
		dst = hex.AppendEncode(dst, addrs[i][:])
		dst = append(dst, '"')
	}
	return append(dst, `]}`...)
}

// htmlSafe marks the ASCII bytes json.Marshal writes unescaped: the
// printable ones other than '"', '\\' and the HTML-sensitive '<', '>'
// and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as json.Marshal quotes it: short
// escapes for '"', '\\', \b, \f, \n, \r and \t; a \u00XX escape for
// the other control bytes and for '<', '>' and '&'; the escaped
// replacement character U+FFFD for each invalid UTF-8 byte; and
// escapes for the JavaScript line terminators U+2028 and U+2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Decoding.

// validScan walks one JSON value that encoding/json has already
// validated, so it finds token boundaries without checking grammar.
type validScan struct {
	data []byte
	off  int
}

// peek skips whitespace and returns the next byte.
func (s *validScan) peek() byte {
	for s.off < len(s.data) {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\r', '\n':
			s.off++
		default:
			return c
		}
	}
	return 0
}

// enter consumes the opening bracket of a container and reports
// whether a member or element follows (consuming the closing bracket
// if not).
func (s *validScan) enter() bool {
	s.off++
	if c := s.peek(); c == ']' || c == '}' {
		s.off++
		return false
	}
	return true
}

// more reports whether another member or element follows, consuming
// the ',' or the closing bracket.
func (s *validScan) more() bool {
	c := s.peek()
	s.off++
	return c == ','
}

// str consumes a string token, quotes included, and reports whether
// the bytes between the quotes are the string itself (no escapes,
// ASCII only).
func (s *validScan) str() (tok []byte, plain bool) {
	s.peek()
	start := s.off
	// Without a backslash before it, the first quote closes the string.
	body := s.data[start+1:]
	if end := bytes.IndexByte(body, '"'); bytes.IndexByte(body[:end], '\\') < 0 {
		s.off = start + end + 2
		return s.data[start:s.off], ascii(body[:end])
	}
	i := start + 1
	plain = true
	for s.data[i] != '"' {
		switch c := s.data[i]; {
		case c == '\\':
			plain = false
			i += 2
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	s.off = i + 1
	return s.data[start:s.off], plain
}

// ascii reports whether b holds only ASCII bytes, testing eight at a
// time.
func ascii(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b)&0x8080808080808080 != 0 {
			return false
		}
	}
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// literal consumes a number, true, false or null.
func (s *validScan) literal() []byte {
	s.peek()
	start := s.off
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ',', ']', '}', ' ', '\t', '\r', '\n':
			return s.data[start:s.off]
		}
		s.off++
	}
	return s.data[start:]
}

// key consumes a member name and the ':' after it, and returns the
// name as encoding/json matches it, escapes resolved.
func (s *validScan) key() []byte {
	tok, plain := s.str()
	s.peek()
	s.off++
	if !plain {
		return []byte(unquote(tok, plain))
	}
	return tok[1 : len(tok)-1]
}

// integer consumes a value bound for a signed integer of the given bit
// size; c is the value's first byte. As for encoding/json, only an
// in-range number without fraction or exponent fits, and anything else
// is a type mismatch (and is not consumed).
func (s *validScan) integer(c byte, bits int) (int64, bool) {
	if c != '-' && (c < '0' || c > '9') {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s.literal()), 10, bits)
	return n, err == nil
}

// skip consumes one value of any kind.
func (s *validScan) skip() {
	switch s.peek() {
	case '"':
		s.str()
	case '[', '{':
		depth := 0
		for {
			switch s.data[s.off] {
			case '"':
				s.str()
				continue
			case '[', '{':
				depth++
			case ']', '}':
				if depth--; depth == 0 {
					s.off++
					return
				}
			}
			s.off++
		}
	default:
		s.literal()
	}
}

// unquote returns the string a string token denotes, as encoding/json
// decodes it: escapes resolved, invalid UTF-8 replaced.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var out string
	_ = json.Unmarshal(tok, &out) // tok is a validated string token
	return out
}

// parseAddress converts an address string token as
// ethtypes.HexToAddress converts the string, without allocating on the
// well-formed path; anything else is left to HexToAddress for its
// verdict and error.
func parseAddress(tok []byte, plain bool) (ethtypes.Address, error) {
	var a ethtypes.Address
	if plain {
		h := tok[1 : len(tok)-1]
		if len(h) == 2+2*ethtypes.AddressLength && h[0] == '0' && h[1] == 'x' {
			h = h[2:]
		}
		if len(h) == 2*ethtypes.AddressLength {
			if _, err := hex.Decode(a[:], h); err == nil {
				return a, nil
			}
		}
	}
	return ethtypes.HexToAddress(unquote(tok, plain))
}

var errWantAddresses = invalidParams("want [address, ...]")

// emptyToken is the string token a null address decodes as.
var emptyToken = []byte(`""`)

// decodeAddresses decodes validated daas_screenBatch params into
// dst[:0]. It answers exactly as unmarshalling them into []string and
// converting each element did: a non-array value or a non-string
// element is "want [address, ...]"; more than maxScreenBatch elements
// is the batch-size error; otherwise the first malformed address (a
// null element counts as "") is named by its index. null params are an
// empty batch.
func decodeAddresses(dst []ethtypes.Address, params []byte) ([]ethtypes.Address, *rpcError) {
	dst = dst[:0]
	s := validScan{data: params}
	switch s.peek() {
	case 'n':
		return dst, nil
	case '[':
	default:
		return dst, errWantAddresses
	}
	var bad *rpcError
	n := 0
	for more := s.enter(); more; more = s.more() {
		var tok []byte
		plain := true
		switch s.peek() {
		case '"':
			tok, plain = s.str()
		case 'n':
			s.literal()
			tok = emptyToken
		default:
			return dst, errWantAddresses
		}
		if n < maxScreenBatch && bad == nil {
			a, err := parseAddress(tok, plain)
			if err != nil {
				bad = invalidParams(fmt.Sprintf("address %d: %s", n, err))
			}
			dst = append(dst, a)
		}
		n++
	}
	if n > maxScreenBatch {
		return dst, invalidParams(fmt.Sprintf("batch of %d exceeds limit %d", n, maxScreenBatch))
	}
	return dst, bad
}

// errVerdictType stands for the type mismatch encoding/json reports
// when a verdict does not have the wire shape.
var errVerdictType = errors.New("verdict does not have the daas_screen shape")

// errEnvelopeType stands for the type mismatch encoding/json reports
// when a response envelope member does not have response's type.
var errEnvelopeType = errors.New("response envelope does not have the JSON-RPC shape")

// Verdict object members, indexing verdictFields.
const (
	fieldAddress = iota
	fieldListed
	fieldKind
	fieldReason
	fieldFamily
	fieldTainted
	fieldStaticFlagged
	fieldSnapshotAge
	fieldUnknown
)

var verdictFields = [...][]byte{
	[]byte("address"), []byte("listed"), []byte("kind"), []byte("reason"),
	[]byte("family"), []byte("tainted"), []byte("staticFlagged"), []byte("snapshotAge"),
}

// Response envelope members, indexing envelopeFields.
const (
	memberJSONRPC = iota
	memberID
	memberResult
	memberError
)

var envelopeFields = [...][]byte{[]byte("jsonrpc"), []byte("id"), []byte("result"), []byte("error")}

// Error object members, indexing errorFields.
const (
	memberCode = iota
	memberMessage
)

var errorFields = [...][]byte{[]byte("code"), []byte("message")}

// matchField matches a member name against names as encoding/json
// matches struct fields: exactly, or else under Unicode case folding.
// A name no field takes is len(names).
func matchField(key []byte, names [][]byte) int {
	for i, name := range names {
		if string(key) == string(name) {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return len(names)
}

// envelope is a response envelope as the client reads it: the result
// member left in place and the error member decoded.
type envelope struct {
	// result is the last result member's bytes, nil if there is none.
	result []byte
	// hasErr reports a non-null error member, and rpcErr is its value.
	hasErr bool
	rpcErr rpcError
}

// A resultDecoder decodes a response's result member in place, as the
// walk over the envelope reaches it.
type resultDecoder interface {
	// parse consumes one result value. The walk calls it for every
	// result member, so the last call must win, as the last duplicate
	// does in encoding/json.
	parse(s *validScan)
	// done reports the decoding's outcome once the envelope has been
	// accepted; result is the last result member's bytes, nil if there
	// was none.
	done(result []byte) error
}

// unmarshalResult hands the result bytes to json.Unmarshal into v; a
// nil v discards the result.
type unmarshalResult struct{ v any }

func (u unmarshalResult) parse(s *validScan) { s.skip() }

func (u unmarshalResult) done(result []byte) error {
	if u.v == nil {
		return nil
	}
	return json.Unmarshal(result, u.v)
}

// decodeResponse validates a whole response body once, with
// encoding/json's own scanner, walks its envelope in place with dec
// decoding the result, and returns the error member or dec's outcome.
// A body that is not one valid JSON value goes through json.Decoder
// instead, as every response once did: it fails there, or its first
// value alone is walked (so an envelope followed by stray bytes is
// still accepted).
func decodeResponse(method string, body []byte, dec resultDecoder) error {
	if !json.Valid(body) {
		var first json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&first); err != nil {
			return fmt.Errorf("rpc: %s: decoding response: %w", method, err)
		}
		body = first
	}
	env, err := parseEnvelope(body, dec)
	if err != nil {
		return fmt.Errorf("rpc: %s: decoding response: %w", method, err)
	}
	if env.hasErr {
		e := env.rpcErr
		return fmt.Errorf("rpc: %s: %w", method, &e)
	}
	return dec.done(env.result)
}

// parseEnvelope walks a validated response body as encoding/json
// decodes it into response: members match case-insensitively and the
// last duplicate wins; a null member leaves its field as it was,
// except that a null error clears it; an error object decodes over the
// one before it; and a member of the wrong type fails the envelope.
// Each result member's value is parsed by dec.
func parseEnvelope(body []byte, dec resultDecoder) (envelope, error) {
	var env envelope
	s := validScan{data: body}
	switch s.peek() {
	case 'n':
		return env, nil
	case '{':
	default:
		return env, errEnvelopeType
	}
	for more := s.enter(); more; more = s.more() {
		field, c := matchField(s.key(), envelopeFields[:]), s.peek()
		switch {
		case field == memberResult:
			start := s.off
			dec.parse(&s)
			env.result = body[start:s.off]
		case field == len(envelopeFields):
			s.skip()
		case c == 'n':
			s.literal()
			if field == memberError {
				env.hasErr = false
			}
		case field == memberJSONRPC:
			if c != '"' {
				return env, errEnvelopeType
			}
			s.str()
		case field == memberID:
			if _, ok := s.integer(c, 64); !ok {
				return env, errEnvelopeType
			}
		default: // memberError
			if c != '{' {
				return env, errEnvelopeType
			}
			if !env.hasErr {
				env.hasErr, env.rpcErr = true, rpcError{}
			}
			if !decodeRPCError(&s, &env.rpcErr) {
				return env, errEnvelopeType
			}
		}
	}
	return env, nil
}

// decodeRPCError decodes an error object over dst as encoding/json
// does, reporting false on a member of the wrong type.
func decodeRPCError(s *validScan, dst *rpcError) bool {
	for more := s.enter(); more; more = s.more() {
		field, c := matchField(s.key(), errorFields[:]), s.peek()
		switch {
		case field == len(errorFields):
			s.skip()
		case c == 'n':
			s.literal()
		case field == memberCode:
			code, ok := s.integer(c, strconv.IntSize)
			if !ok {
				return false
			}
			dst.Code = int(code)
		default: // memberMessage
			if c != '"' {
				return false
			}
			dst.Message = unquote(s.str())
		}
	}
	return true
}

// maxInterned bounds a verdictDecoder's string table; past it,
// strings are allocated per verdict.
const maxInterned = 64

// verdictDecoder turns verdict objects into ScreenResults, sharing one
// string per distinct kind, reason and family across a response.
type verdictDecoder struct {
	strs []string
}

func (d *verdictDecoder) intern(tok []byte, plain bool) string {
	if !plain {
		return unquote(tok, plain)
	}
	raw := tok[1 : len(tok)-1]
	for _, s := range d.strs {
		if s == string(raw) {
			return s
		}
	}
	s := string(raw)
	if len(d.strs) < maxInterned {
		d.strs = append(d.strs, s)
	}
	return s
}

// verdict decodes one verdict value. A member of the wrong type fails
// the whole verdict (typeErr); otherwise a missing or malformed address
// comes back as addrErr beside the rest of the verdict. A null verdict
// or member leaves the fields as they were, as encoding/json does.
func (d *verdictDecoder) verdict(s *validScan) (out ScreenResult, addrErr, typeErr error) {
	addrTok, addrPlain := emptyToken, true
	switch s.peek() {
	case 'n':
		s.literal()
	case '{':
		for more := s.enter(); more; more = s.more() {
			field, c := matchField(s.key(), verdictFields[:]), s.peek()
			switch {
			case field == fieldUnknown:
				s.skip()
			case c == 'n':
				s.literal()
			case field == fieldListed || field == fieldTainted || field == fieldStaticFlagged:
				if c != 't' && c != 'f' {
					return out, nil, errVerdictType
				}
				s.literal()
				switch field {
				case fieldListed:
					out.Listed = c == 't'
				case fieldTainted:
					out.Tainted = c == 't'
				default:
					out.StaticFlagged = c == 't'
				}
			case field == fieldSnapshotAge:
				age, ok := parseUint64(s.literal())
				if !ok || c < '0' || c > '9' {
					return out, nil, errVerdictType
				}
				out.SnapshotAgeSeconds = age
			default: // a string member
				if c != '"' {
					return out, nil, errVerdictType
				}
				tok, plain := s.str()
				switch field {
				case fieldAddress:
					addrTok, addrPlain = tok, plain
				case fieldKind:
					out.Kind = d.intern(tok, plain)
				case fieldReason:
					out.Reason = d.intern(tok, plain)
				default:
					out.Family = d.intern(tok, plain)
				}
			}
		}
	default:
		return out, nil, errVerdictType
	}
	out.Address, addrErr = parseAddress(addrTok, addrPlain)
	return out, addrErr, nil
}

// parseUint64 parses a JSON number literal as encoding/json fills a
// uint64: decimal digits only (no sign, fraction or exponent) and no
// overflow.
func parseUint64(lit []byte) (uint64, bool) {
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, len(lit) > 0
}

// verdictResult decodes a daas_screen result into v. It fails where
// unmarshalling the result into a verdict struct and converting the
// address would have.
type verdictResult struct {
	v   ScreenResult
	err error
}

func (r *verdictResult) parse(s *validScan) {
	start := s.off
	var d verdictDecoder
	v, addrErr, typeErr := d.verdict(s)
	switch {
	case typeErr != nil:
		r.v, r.err = ScreenResult{}, typeErr
		s.off = start
		s.skip()
	case addrErr != nil:
		r.v, r.err = ScreenResult{}, addrErr
	default:
		r.v, r.err = v, nil
	}
}

func (r *verdictResult) done(result []byte) error {
	switch {
	case result == nil:
		return errors.New("rpc: daas_screen: response has no result")
	case r.err != nil:
		return fmt.Errorf("rpc: daas_screen: %w", r.err)
	}
	return nil
}

// verdictsResult decodes a daas_screenBatch result of want verdicts
// into list, reusing its capacity. It fails where unmarshalling the
// result into verdict structs and converting each would have, in the
// same order: a type mismatch anywhere, then the count, then the first
// verdict with a missing or malformed address.
type verdictsResult struct {
	want int
	list []ScreenResult
	// typeErr is a type mismatch anywhere in the result.
	typeErr error
	// badItem is the index of the first verdict with a missing or
	// malformed address, and badErr its error (nil if none).
	badItem int
	badErr  error
}

func (r *verdictsResult) parse(s *validScan) {
	start := s.off
	r.list, r.typeErr, r.badErr = r.list[:0], nil, nil
	switch s.peek() {
	case 'n':
		s.literal()
		return
	case '[':
	default:
		r.typeErr = errVerdictType
		s.skip()
		return
	}
	var d verdictDecoder
	for more := s.enter(); more; more = s.more() {
		v, addrErr, typeErr := d.verdict(s)
		if typeErr != nil {
			r.typeErr = typeErr
			s.off = start
			s.skip()
			return
		}
		if addrErr != nil && r.badErr == nil {
			r.badItem, r.badErr = len(r.list), addrErr
		}
		r.list = append(r.list, v)
	}
}

func (r *verdictsResult) done(result []byte) error {
	switch {
	case result == nil:
		return errors.New("rpc: daas_screenBatch: response has no result")
	case r.typeErr != nil:
		return fmt.Errorf("rpc: daas_screenBatch: %w", r.typeErr)
	case len(r.list) != r.want:
		return fmt.Errorf("rpc: daas_screenBatch: %d results for %d addresses", len(r.list), r.want)
	case r.badErr != nil:
		return fmt.Errorf("rpc: daas_screenBatch item %d: %w", r.badItem, r.badErr)
	}
	return nil
}
