package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/ethtypes"
	"repro/internal/screen"
)

// The daas_screen* codec is pinned to encoding/json over the structs it
// replaced. Everything in this file down to the tests is that oracle:
// the old server's params decoding, verdict DTO and envelope encoder,
// and the old client's response decoding.

// screenResultJSON is one daas_screen/daas_screenBatch verdict as the
// codec's predecessor declared it.
type screenResultJSON struct {
	Address       string `json:"address"`
	Listed        bool   `json:"listed"`
	Kind          string `json:"kind,omitempty"`
	Reason        string `json:"reason,omitempty"`
	Family        string `json:"family,omitempty"`
	Tainted       bool   `json:"tainted,omitempty"`
	StaticFlagged bool   `json:"staticFlagged,omitempty"`
	SnapshotAge   uint64 `json:"snapshotAge,omitempty"`
}

func oracleVerdict(v screen.Verdict, age uint64) screenResultJSON {
	out := screenResultJSON{Address: v.Address.Hex(), Listed: v.Listed, SnapshotAge: age}
	if v.Listed {
		out.Kind = v.Kind.String()
		out.Reason = v.Reason
		out.Family = v.Family
		out.Tainted = v.Tainted
		out.StaticFlagged = v.StaticFlagged
	}
	return out
}

// oracleEnvelope is the old server's response writer.
func oracleEnvelope(tb testing.TB, resp response) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oracleAddresses decodes daas_screenBatch params as the old server
// did.
func oracleAddresses(params json.RawMessage) ([]ethtypes.Address, *rpcError) {
	var args []string
	if err := json.Unmarshal(params, &args); err != nil {
		return nil, invalidParams("want [address, ...]")
	}
	if len(args) > maxScreenBatch {
		return nil, invalidParams(fmt.Sprintf("batch of %d exceeds limit %d", len(args), maxScreenBatch))
	}
	addrs := make([]ethtypes.Address, len(args))
	for i, raw := range args {
		a, err := ethtypes.HexToAddress(raw)
		if err != nil {
			return nil, invalidParams(fmt.Sprintf("address %d: %s", i, err))
		}
		addrs[i] = a
	}
	return addrs, nil
}

// oracleScreenBatch answers daas_screenBatch params as the old server
// did.
func oracleScreenBatch(snap *screen.Snapshot, params json.RawMessage, age uint64) ([]screenResultJSON, *rpcError) {
	addrs, rpcErr := oracleAddresses(params)
	if rpcErr != nil {
		return nil, rpcErr
	}
	out := make([]screenResultJSON, len(addrs))
	for i, a := range addrs {
		rec, ok := snap.Lookup(a)
		rec.Address = a
		out[i] = oracleVerdict(screen.Verdict{Record: rec, Listed: ok}, age)
	}
	return out, nil
}

// oracleServe is the old server's answer to a single-envelope body
// whose method is daas_screenBatch (ok false for any other method).
func oracleServe(tb testing.TB, snap *screen.Snapshot, body []byte) (out []byte, ok bool) {
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return oracleEnvelope(tb, response{JSONRPC: "2.0", Error: &rpcError{Code: codeParse, Message: err.Error()}}), true
	}
	if req.Method != "daas_screenBatch" {
		return nil, false
	}
	resp := response{JSONRPC: "2.0", ID: req.ID}
	verdicts, rpcErr := oracleScreenBatch(snap, req.Params, 0)
	if rpcErr != nil {
		resp.Error = rpcErr
	} else {
		resp.Result, _ = json.Marshal(verdicts)
	}
	return oracleEnvelope(tb, resp), true
}

func fromScreenResultJSON(in screenResultJSON) (ScreenResult, error) {
	a, err := ethtypes.HexToAddress(in.Address)
	if err != nil {
		return ScreenResult{}, err
	}
	return ScreenResult{
		Address: a, Listed: in.Listed, Kind: in.Kind, Reason: in.Reason,
		Family: in.Family, Tainted: in.Tainted, StaticFlagged: in.StaticFlagged,
		SnapshotAgeSeconds: in.SnapshotAge,
	}, nil
}

// oracleDecodeBatch decodes a daas_screenBatch response body of want
// verdicts as the old client did.
func oracleDecodeBatch(body []byte, want int) ([]ScreenResult, error) {
	var out response
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
		return nil, err
	}
	if out.Error != nil {
		return nil, out.Error
	}
	var raw []screenResultJSON
	if err := json.Unmarshal(out.Result, &raw); err != nil {
		return nil, err
	}
	if len(raw) != want {
		return nil, fmt.Errorf("%d results for %d addresses", len(raw), want)
	}
	res := make([]ScreenResult, len(raw))
	for i, rj := range raw {
		r, err := fromScreenResultJSON(rj)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return res, nil
}

// decodeBatch is the client's daas_screenBatch response decoding, as
// callOnce runs it on a body read to EOF.
func decodeBatch(body []byte, want int) ([]ScreenResult, error) {
	r := verdictsResult{want: want}
	if err := decodeResponse("daas_screenBatch", body, &r); err != nil {
		return nil, err
	}
	return r.list, nil
}

// sameOutcome fails unless both decodings accepted with equal verdicts,
// or both rejected, with the same rpc error when the server sent one.
func sameOutcome(t *testing.T, what string, input []byte, got, want []ScreenResult, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s of %q: error %v, oracle error %v", what, input, gotErr, wantErr)
	}
	var gotRPC, wantRPC *rpcError
	if errors.As(gotErr, &gotRPC) != errors.As(wantErr, &wantRPC) || (gotRPC != nil && *gotRPC != *wantRPC) {
		t.Fatalf("%s of %q: error %v, oracle error %v", what, input, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s of %q: %d verdicts, oracle %d", what, input, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s of %q: verdict %d = %+v, oracle %+v", what, input, i, got[i], want[i])
		}
	}
}

func codecAddr(b byte) ethtypes.Address {
	var a ethtypes.Address
	for i := range a {
		a[i] = b
	}
	return a
}

// codecRecords list names and reasons that exercise every escape
// json.Marshal makes: HTML-sensitive bytes, control bytes, the
// JavaScript line terminators, invalid UTF-8 and valid non-ASCII.
func codecRecords() []screen.Record {
	return []screen.Record{
		{Address: codecAddr(1), Kind: screen.KindContract, Reason: screen.ReasonContract, Family: `<Inferno & "Co">`, Tainted: true, StaticFlagged: true},
		{Address: codecAddr(2), Kind: screen.KindOperator, Reason: screen.ReasonOperator, Family: "Angel" + string(rune(0x2028)) + "Pink" + string(rune(0x2029))},
		{Address: codecAddr(3), Kind: screen.KindAffiliate, Reason: "tab\tnew\nline\\ctl\x01\x1f\x7f\b\f\r/", Family: "bad\xffutf8\xc3"},
		{Address: codecAddr(4), Kind: screen.KindManual, Reason: "reported by victim <script>", StaticFlagged: true},
		{Address: codecAddr(5), Kind: screen.KindContract, Reason: screen.ReasonContract, Family: "Ínferno ☃ \U0001F525"},
	}
}

func codecSnapshot() *screen.Snapshot {
	b := screen.NewBuilder()
	for _, r := range codecRecords() {
		b.Add(r)
	}
	return b.Build()
}

// TestScreenCodecMatchesEncodingJSON is the byte-identity table: the
// verdict and envelope encoders against json.Marshal and
// Encoder.Encode, the request builder against json.Marshal, and a
// whole ServeHTTP answer against the old server's.
func TestScreenCodecMatchesEncodingJSON(t *testing.T) {
	snap := codecSnapshot()
	addrs := []ethtypes.Address{codecAddr(9), codecAddr(1), codecAddr(2), codecAddr(3), codecAddr(4), codecAddr(5), codecAddr(1)}
	var verdicts []screen.Verdict
	for _, a := range addrs {
		rec, ok := snap.Lookup(a)
		rec.Address = a
		verdicts = append(verdicts, screen.Verdict{Record: rec, Listed: ok})
	}
	for _, age := range []uint64{0, 1, 86400, math.MaxUint64} {
		var want []screenResultJSON
		for _, v := range verdicts {
			want = append(want, oracleVerdict(v, age))
		}
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendVerdicts(nil, verdicts, age); !bytes.Equal(got, raw) {
			t.Errorf("age %d verdicts:\n got %s\nwant %s", age, got, raw)
		}
		one, _ := json.Marshal(want[1])
		if got := appendVerdict(nil, &verdicts[1], age); !bytes.Equal(got, one) {
			t.Errorf("age %d verdict:\n got %s\nwant %s", age, got, one)
		}
		for _, id := range []int64{0, 1, -7, math.MaxInt64, math.MinInt64} {
			env := oracleEnvelope(t, response{JSONRPC: "2.0", ID: id, Result: raw})
			if got := append(appendResult(nil, id, raw), '\n'); !bytes.Equal(got, env) {
				t.Errorf("id %d envelope:\n got %s\nwant %s", id, got, env)
			}
		}
	}

	for _, msg := range []string{"", "want [address, ...]", `address 0: address "0x<&>": bad`, "bad\xff\x00" + string(rune(0x2029))} {
		e := &rpcError{Code: codeInvalidParams, Message: msg}
		want := oracleEnvelope(t, response{JSONRPC: "2.0", ID: 3, Error: e})
		if got := append(appendError(nil, 3, e), '\n'); !bytes.Equal(got, want) {
			t.Errorf("error envelope:\n got %s\nwant %s", got, want)
		}
	}

	for _, n := range []int{0, 1, len(addrs)} {
		for _, id := range []int64{0, 12, math.MaxInt64} {
			params := make([]string, n)
			for i := range params {
				params[i] = addrs[i].Hex()
			}
			rawParams, _ := json.Marshal(params)
			want, _ := json.Marshal(request{JSONRPC: "2.0", ID: id, Method: "daas_screenBatch", Params: rawParams})
			if got := appendScreenBatchRequest(nil, id, addrs[:n]); !bytes.Equal(got, want) {
				t.Errorf("request of %d:\n got %s\nwant %s", n, got, want)
			}
		}
	}

	eng := screen.NewEngine(nil)
	eng.Swap(snap)
	srv := &Server{Screen: eng}
	body := appendScreenBatchRequest(nil, 42, addrs)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
	want, _ := oracleServe(t, snap, body)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("ServeHTTP:\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
	got, err := decodeBatch(rec.Body.Bytes(), len(addrs))
	oracle, oracleErr := oracleDecodeBatch(want, len(addrs))
	sameOutcome(t, "client decode", want, got, oracle, err, oracleErr)
	if err != nil || got[3].Family != "bad\ufffdutf8\ufffd" {
		t.Errorf("invalid UTF-8 family decoded as %q (%v)", got[3].Family, err)
	}
}

// TestClientEnvelopeMatchesDecoder pins the client's envelope walk to
// the json.Decoder it replaced on the members the fuzz seeds reach
// least: duplicate and case-folded members, error objects decoded over
// each other, member type mismatches, and bodies that are not one
// valid JSON value.
func TestClientEnvelopeMatchesDecoder(t *testing.T) {
	addr := codecAddr(1).Hex()
	verdict := `[{"address":"` + addr + `","listed":false}]`
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":1,"result":` + verdict + "}\n",
		`{"error":{"code":1,"message":"a"},"error":{"code":2}}`,
		`{"error":{"code":1,"message":"a"},"error":null,"error":{"code":2}}`,
		`{"error":{"code":1,"message":"a"},"error":{}}`,
		`{"error":null,"result":` + verdict + `}`,
		`{"ERROR":{"Code":3,"MESSAGE":"x","extra":{"y":[1,"}"]}}}`,
		`{"error":{"code":-32602,"message":"bad \u00e9\ud800 \"q\""}}`,
		`{"error":{"code":1,"message":null}}`, `{"error":{"code":null}}`,
		`{"error":[]}`, `{"error":"x"}`, `{"error":1}`, `{"error":{"code":"1"}}`,
		`{"error":{"code":1.0}}`, `{"error":{"code":1e2}}`, `{"error":{"code":true}}`,
		`{"error":{"code":9223372036854775808}}`, `{"error":{"message":5}}`, `{"error":{"message":{}}}`,
		`{"id":"1","result":` + verdict + `}`, `{"id":1.5,"result":[]}`, `{"id":1e2,"result":[]}`,
		`{"id":-0,"result":[]}`, `{"id":-9223372036854775808,"result":[]}`, `{"id":9223372036854775808,"result":[]}`,
		`{"id":null,"result":[]}`, `{"id":[],"result":[]}`, `{"id":{},"result":[]}`, `{"id":false,"result":[]}`,
		`{"jsonrpc":null,"result":[]}`, `{"jsonrpc":true,"result":[]}`, `{"jsonrpc":2.0,"result":[]}`, `{"JSONRPC":["2.0"],"result":[]}`,
		`{"r\u0065sult":[]}`, `{"Result":` + verdict + `,"RESULT":null}`, `{"result":null,"result":` + verdict + `}`,
		`{"\u017fesult":[]}`, `{"resul":[],"results":[]}`, `{}`, `{"result":[]}`,
		` null `, `[]`, `[{"result":[]}]`, `"x"`, `1`, `true`, ``, `   `, "\n",
		`{"result":[]}{"result":` + verdict + `}`, `{"result":[]`, `{"result":[]} trailing`,
		`{"error":{"code":1,"message":"a"}} trailing`, `{"result":` + verdict + `}]`,
		// Raw non-ASCII bytes, valid and not: encoding/json replaces
		// each invalid byte with U+FFFD.
		"{\"result\":[{\"address\":\"" + addr + "\",\"listed\":true,\"kind\":\"k\xff\",\"family\":\"\u00cdnferno \u2603 \xc3\"}]}",
		"{\"error\":{\"code\":1,\"message\":\"bad\xff\xe2\x80 \u2028\"}}",
	} {
		for _, want := range []int{0, 1} {
			got, err := decodeBatch([]byte(body), want)
			oracle, oracleErr := oracleDecodeBatch([]byte(body), want)
			sameOutcome(t, "response", []byte(body), got, oracle, err, oracleErr)
		}
	}
}

// FuzzScreenBatchCodec pins the daas_screenBatch codec to its
// encoding/json oracle on arbitrary bytes, used four ways: as the
// request's params (the server must pick the same verdicts or the same
// rpc error, byte for byte), as a response body and as a lone verdict
// (the client must accept exactly what the oracle accepts, with the same
// verdicts or rpc error), and as the strings an encoder quotes.
func FuzzScreenBatchCodec(f *testing.F) {
	addr := codecAddr(1).Hex()
	for _, seed := range []string{
		`["` + addr + `","` + codecAddr(9).Hex() + `"]`,
		`[]`, `null`, `[null]`, `{}`, `"x"`, `1`, `[1]`, `[true]`, `[[]]`, `[{}]`,
		`["0X` + addr[2:] + `"]`, `["` + addr[2:] + `"]`, `["0x0x` + addr[4:] + `"]`,
		`[ "\u0030x` + addr[2:] + `" ]`, `["` + addr + `\u0000"]`, `["\xff"]`,
		`[` + strings.Repeat(`"`+addr+`",`, 5) + `null]`,
		`{"jsonrpc":"2.0","id":1,"result":[{"address":"` + addr + `","listed":true,"kind":"contract","family":"<x>","snapshotAge":3}]}`,
		`{"id":1,"result":[{"ADDRESS":"` + addr + `","Listed":true,"kind":null,"listed":null,"\u017ftaticFlagged":true,"extra":[{"a":"]"}]}]}`,
		`{"result":null}`, `{"result":[null]}`, `{"result":[],"error":{"code":-32602,"message":"bad"}}`,
		`{"result":[{"address":"` + addr + `","snapshotAge":-1}]}`, `{"result":[{"address":"` + addr + `","snapshotAge":1e2}]}`,
		`{"result":[{"address":"` + addr + `","snapshotAge":18446744073709551616}]}`,
		`{"result":[{"address":"` + addr + `","listed":"true"}]}`, `{"result":{"address":"` + addr + `"}}`,
		`{"jsonrpc":2,"result":[]}`, `{"result":[]} trailing`, `{"result":[{"address":"` + addr + `","family":"\ud83d\udd25 \u2028"}]}`,
		`{"result":[{"address":"` + addr + `","reason":"a\\\"b"}],"result":[]}`,
		`{"address":"` + addr + `","listed":true,"kind":"operator","tainted":false,"staticFlagged":null}`,
	} {
		f.Add([]byte(seed), uint8(1))
	}

	snap := codecSnapshot()
	eng := screen.NewEngine(nil)
	eng.Swap(snap)
	srv := &Server{Screen: eng}

	f.Fuzz(func(t *testing.T, data []byte, want uint8) {
		// Server: data as the params of a daas_screenBatch request. A
		// fresh snapshot keeps snapshotAge at 0 on both sides.
		eng.MarkFresh()
		if json.Valid(data) {
			oracle, oracleErr := oracleAddresses(data)
			got, gotErr := decodeAddresses(nil, data)
			if (gotErr == nil) != (oracleErr == nil) || (gotErr != nil && *gotErr != *oracleErr) {
				t.Fatalf("params %q: error %v, oracle %v", data, gotErr, oracleErr)
			}
			if gotErr == nil && !slices.Equal(got, oracle) {
				t.Fatalf("params %q: addresses %x, oracle %x", data, got, oracle)
			}
		}
		body := append(append([]byte(`{"jsonrpc":"2.0","id":7,"method":"daas_screenBatch","params":`), data...), '}')
		if want, ok := oracleServe(t, snap, body); ok {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("ServeHTTP of params %q:\n got %s\nwant %s", data, rec.Body.Bytes(), want)
			}
		}

		// Client: data as a daas_screenBatch response body, expecting
		// want verdicts and then as many as its result holds.
		counts := []int{int(want)}
		var probe response
		var raw []json.RawMessage
		if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil && json.Unmarshal(probe.Result, &raw) == nil {
			counts = append(counts, len(raw))
		}
		for _, n := range counts {
			oracle, oracleErr := oracleDecodeBatch(data, n)
			got, gotErr := decodeBatch(data, n)
			sameOutcome(t, "response", data, got, oracle, gotErr, oracleErr)
		}

		// Client: data as a lone daas_screen result.
		if json.Valid(data) {
			var rj screenResultJSON
			var one ScreenResult
			oracleErr := json.Unmarshal(data, &rj)
			if oracleErr == nil {
				one, oracleErr = fromScreenResultJSON(rj)
			}
			var r verdictResult
			r.parse(&validScan{data: data})
			gotErr := r.done(data)
			var oracleList, gotList []ScreenResult
			if oracleErr == nil {
				oracleList = []ScreenResult{one}
			}
			if gotErr == nil {
				gotList = []ScreenResult{r.v}
			}
			sameOutcome(t, "verdict", data, gotList, oracleList, gotErr, oracleErr)
		}

		// Encoders: data as the strings they quote.
		s := string(data)
		v := screen.Verdict{Record: screen.Record{Address: codecAddr(want), Kind: screen.Kind(want % 5), Reason: s, Family: s, Tainted: want&1 != 0}, Listed: want&2 != 0}
		wantRaw, _ := json.Marshal([]screenResultJSON{oracleVerdict(v, uint64(want))})
		if gotRaw := appendVerdicts(nil, []screen.Verdict{v}, uint64(want)); !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("verdict with %q:\n got %s\nwant %s", data, gotRaw, wantRaw)
		}
		e := &rpcError{Code: int(want) - 40000, Message: s}
		wantEnv := oracleEnvelope(t, response{JSONRPC: "2.0", ID: int64(want), Error: e})
		if gotEnv := append(appendError(nil, int64(want), e), '\n'); !bytes.Equal(gotEnv, wantEnv) {
			t.Fatalf("error envelope with %q:\n got %s\nwant %s", data, gotEnv, wantEnv)
		}
	})
}
