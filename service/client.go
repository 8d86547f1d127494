package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Client is the typed counterpart of the HTTP API served by NewHandler.
// Construct it with New and functional options; the zero-option form
// speaks JSON against the versioned /v1 surface. WithAccept
// (MediaTypeBinary) switches the hot-path calls to the binary wire
// format with an automatic, sticky fallback to JSON when the server
// answers 415 — a binary-capable client against a JSON-only server
// degrades transparently.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	timeout time.Duration
	retries int
	accept  string
	headers http.Header
	// jsonOnly latches after a 415 against a binary request: the server
	// does not speak the binary format, so every later call goes
	// straight to JSON instead of paying a rejected round trip each.
	jsonOnly atomic.Bool
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithTimeout bounds every call with a per-request deadline (layered
// under any caller context deadline).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithAccept selects the preferred response media type. Passing
// MediaTypeBinary opts the hot-path calls into the binary wire format
// for both request bodies and responses; anything else keeps JSON.
func WithAccept(mediaType string) ClientOption {
	return func(c *Client) { c.accept = contentMediaType(mediaType) }
}

// WithRetry retries a call up to n extra times on transport-level
// errors (connection refused, reset — calls that never reached a
// server). Answered errors (APIError) are never retried, and neither
// are calls that are unsafe to resend: a transport error only proves
// the *reply* was lost, not the request, so a non-idempotent call
// (chunked-upload ops, row updates without an idempotency key) may
// already have been applied. Reads, PUT/DELETE, estimates, and keyed
// row updates (UpdateRows auto-assigns a key when retries are on; the
// server dedupes on it) retry freely.
func WithRetry(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithHeader sets a static header on every request the client sends —
// how a caller pins per-client routing hints (the gateway's
// MP-Consistency SLA level and MP-Session token) without threading
// them through each call site.
func WithHeader(key, value string) ClientOption {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = make(http.Header)
		}
		c.headers.Set(key, value)
	}
}

// WithHTTPClient sets the underlying *http.Client.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.HTTPClient = h }
}

// New returns a client for the given server root, addressing the
// versioned /v1 API surface.
func New(baseURL string, opts ...ClientOption) *Client {
	c := &Client{BaseURL: baseURL}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx server reply. A call that fails with an
// APIError reached a live server and was answered; any other client
// error (connection refused, reset, timeout) never got an answer —
// the distinction the gateway's failover logic routes on.
type APIError struct {
	// Status is the HTTP status code the server replied with.
	Status int
	// Code is the machine-matchable code of the error envelope
	// ({"error":{"code":…}}), empty when the server predates it.
	Code string
	// Message is the server's error string (the envelope's message, the
	// legacy {"error":"…"} string, or the raw body when neither).
	Message string
	// RetryAfter is the server's Retry-After hint on sheds (429/503),
	// zero when absent — callers pacing their retries should honor it.
	RetryAfter time.Duration
}

// Error formats the reply as "service: server returned <status>: <msg>".
func (e *APIError) Error() string {
	return fmt.Sprintf("service: server returned %d: %s", e.Status, e.Message)
}

// apiErrorFromBody parses an error body: the uniform envelope first,
// the legacy {"error":"…"} string second, the raw body as a fallback.
func apiErrorFromBody(status int, body []byte) *APIError {
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && len(env.Error) > 0 {
		var info ErrorInfo
		if json.Unmarshal(env.Error, &info) == nil && info.Message != "" {
			return &APIError{Status: status, Code: info.Code, Message: info.Message}
		}
		var msg string
		if json.Unmarshal(env.Error, &msg) == nil && msg != "" {
			return &APIError{Status: status, Message: msg}
		}
	}
	return &APIError{Status: status, Message: string(body)}
}

// DoJSON performs one JSON API call against the exact path given (no
// prefix, no negotiation): in (when non-nil) is marshaled as the
// request body, out (when non-nil) is filled from the response body,
// and a non-2xx reply is returned as an *APIError. Exported so
// clients layered on the service API — the gateway's admin client —
// reuse the same request plumbing and error discipline.
func (c *Client) DoJSON(ctx context.Context, method, path string, in, out any) error {
	return c.roundTrip(ctx, method, path, in, out, false, false, methodIdempotent(method))
}

// Do performs one API call under the /v1 prefix in the client's
// negotiated encoding: the binary wire format when the client was
// built WithAccept(MediaTypeBinary), the value has a binary form, and
// the server has not refused it; JSON otherwise. The typed methods
// all route through here — the codec seam tiers like the gateway
// inherit by construction.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	return c.do(ctx, method, path, in, out, methodIdempotent(method))
}

// do is Do with an explicit retry-safety override for calls whose
// method alone understates their idempotency (estimates are read-only
// POSTs; keyed row updates are server-deduped PATCHes).
func (c *Client) do(ctx context.Context, method, path string, in, out any, retrySafe bool) error {
	binary := c.accept == MediaTypeBinary && !c.jsonOnly.Load()
	// Advertise binary Accept only when the reply can be decoded from
	// it; a JSON-shaped out (catalog listings, stats) keeps the reply
	// JSON while the request body may still go binary.
	acceptBinary := binary && out != nil && BinaryEncodable(out)
	return c.roundTrip(ctx, method, "/v1"+path, in, out, binary, acceptBinary, retrySafe)
}

// methodIdempotent reports whether a method is safe to resend after a
// transport failure that lost the reply (RFC 9110 §9.2.2): the call
// either has no side effects or replaces state wholesale, so a
// double-application is harmless.
func methodIdempotent(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete:
		return true
	}
	return false
}

func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any, binary, acceptBinary, retrySafe bool) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	wb := getWireBuf()
	defer putWireBuf(wb)
	var body []byte
	contentType := ""
	sentBinary := false
	if in != nil {
		if binary {
			if b, ok := appendBinary(wb.b, in); ok {
				wb.b = b
				body, contentType, sentBinary = b, MediaTypeBinary, true
			}
		}
		if body == nil {
			buf, err := json.Marshal(in)
			if err != nil {
				return err
			}
			body, contentType = buf, mediaTypeJSON
		}
	}
	resp, err := c.send(ctx, method, path, body, contentType, acceptBinary, retrySafe)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusUnsupportedMediaType && sentBinary {
		// The server does not speak the binary format (or not on this
		// endpoint). Latch JSON and replay the call once. The replay is
		// safe regardless of idempotency: a 415 was answered before the
		// request body was acted on.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		c.jsonOnly.Store(true)
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err = c.send(ctx, method, path, buf, mediaTypeJSON, false, retrySafe)
		if err != nil {
			return err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		apiErr := apiErrorFromBody(resp.StatusCode, msg)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if contentMediaType(resp.Header.Get("Content-Type")) == MediaTypeBinary {
		rb := getWireBuf()
		defer putWireBuf(rb)
		b, err := readAllInto(rb.b, resp.Body)
		rb.b = b
		if err != nil {
			return err
		}
		return decodeBinary(b, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one HTTP request, retrying transport-level failures up
// to the configured retry budget (the body is retained encoded, so a
// retry resends identical bytes). Retries apply only to retry-safe
// calls: a transport error proves the reply was lost, not the request,
// so resending a non-idempotent call could apply it twice — the
// double-apply bug the retrySafe gate closes.
func (c *Client) send(ctx context.Context, method, path string, body []byte, contentType string, acceptBinary, retrySafe bool) (*http.Response, error) {
	retries := c.retries
	if !retrySafe {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		for k, vs := range c.headers {
			req.Header[k] = vs
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if acceptBinary {
			req.Header.Set("Accept", MediaTypeBinary+", "+mediaTypeJSON)
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// UploadReply is the full reply of PUT /v1/matrix/{name}: the installed
// catalog info plus any names the insert LRU-evicted to make room.
type UploadReply struct {
	MatrixInfo
	// Evicted lists the matrices evicted by this upload.
	Evicted []string `json:"evicted,omitempty"`
}

// UploadMatrix uploads (or replaces) a served matrix.
func (c *Client) UploadMatrix(ctx context.Context, name string, m Matrix) (MatrixInfo, error) {
	rep, err := c.UploadMatrixFull(ctx, name, m)
	return rep.MatrixInfo, err
}

// UploadMatrixFull uploads (or replaces) a served matrix and returns
// the full reply including LRU evictions — what a placement tier (the
// gateway) needs to keep its view of the backend's registry truthful.
func (c *Client) UploadMatrixFull(ctx context.Context, name string, m Matrix) (UploadReply, error) {
	var out UploadReply
	err := c.Do(ctx, http.MethodPut, "/matrix/"+name, m, &out)
	return out, err
}

// DeleteMatrix removes a served matrix.
func (c *Client) DeleteMatrix(ctx context.Context, name string) error {
	return c.Do(ctx, http.MethodDelete, "/matrix/"+name, nil, nil)
}

// BeginUpload starts a chunked upload of a rows×cols matrix and
// returns its state, including the upload token every subsequent step
// must present.
func (c *Client) BeginUpload(ctx context.Context, name string, rows, cols int) (UploadInfo, error) {
	var out UploadInfo
	err := c.Do(ctx, http.MethodPost, "/matrices/"+name+"/chunks",
		ChunkRequest{Op: "begin", Rows: rows, Cols: cols}, &out)
	return out, err
}

// AppendChunk ships one row-range chunk of a chunked upload.
func (c *Client) AppendChunk(ctx context.Context, name, token string, rowStart, rowEnd int, entries [][3]int64) (UploadInfo, error) {
	var out UploadInfo
	err := c.Do(ctx, http.MethodPost, "/matrices/"+name+"/chunks",
		ChunkRequest{Op: "append", Upload: token, RowStart: rowStart, RowEnd: rowEnd, Entries: entries}, &out)
	return out, err
}

// CommitUpload installs a completed chunked upload in the registry.
func (c *Client) CommitUpload(ctx context.Context, name, token string) (MatrixInfo, error) {
	var out MatrixInfo
	err := c.Do(ctx, http.MethodPost, "/matrices/"+name+"/chunks",
		ChunkRequest{Op: "commit", Upload: token}, &out)
	return out, err
}

// AbortUpload discards a staged chunked upload.
func (c *Client) AbortUpload(ctx context.Context, name, token string) error {
	return c.Do(ctx, http.MethodPost, "/matrices/"+name+"/chunks",
		ChunkRequest{Op: "abort", Upload: token}, nil)
}

// UploadMatrixChunked uploads a matrix through the chunked begin/
// append/commit lifecycle, shipping chunkRows rows per append — the
// path for matrices whose single-body JSON form would exceed the
// server's request size limit. On an append failure the staged upload
// is aborted (best effort) so it does not linger until the server GC.
func (c *Client) UploadMatrixChunked(ctx context.Context, name string, m Matrix, chunkRows int) (MatrixInfo, error) {
	if chunkRows <= 0 {
		chunkRows = 1024
	}
	info, err := c.BeginUpload(ctx, name, m.Rows, m.Cols)
	if err != nil {
		return MatrixInfo{}, err
	}
	// Bucket entries by chunk so each append carries exactly the
	// entries of its row range, in one pass over the wire form.
	chunks := (m.Rows + chunkRows - 1) / chunkRows
	byChunk := make([][][3]int64, chunks)
	for _, ent := range m.Entries {
		i := ent[0]
		if i < 0 || i >= int64(m.Rows) {
			// Out-of-range rows cannot be assigned to any chunk, so the
			// client rejects them itself (mirroring the server's bounds
			// rule) and aborts the stage rather than silently dropping
			// the entry.
			_ = c.AbortUpload(ctx, name, info.Upload)
			return MatrixInfo{}, &APIError{Status: 400, Message: fmt.Sprintf("entry row %d outside %d-row matrix", i, m.Rows)}
		}
		ci := int(i) / chunkRows
		byChunk[ci] = append(byChunk[ci], ent)
	}
	for ci, entries := range byChunk {
		if len(entries) == 0 {
			continue // sparse region: no chunk needed for empty row ranges
		}
		lo := ci * chunkRows
		hi := lo + chunkRows
		if hi > m.Rows {
			hi = m.Rows
		}
		if _, err := c.AppendChunk(ctx, name, info.Upload, lo, hi, entries); err != nil {
			_ = c.AbortUpload(ctx, name, info.Upload)
			return MatrixInfo{}, err
		}
	}
	return c.CommitUpload(ctx, name, info.Upload)
}

// UpdateRows applies a batch of sparse row patches to a served matrix
// in place — the dynamic-update path that keeps the server's sketch
// cache warm instead of forcing a full re-upload. A retrying client
// (WithRetry) auto-assigns an idempotency key when the request carries
// none: the server dedupes on it, so a retried PATCH whose first
// attempt committed before the connection died returns the original
// reply instead of applying the patch twice (fatal in delta mode).
func (c *Client) UpdateRows(ctx context.Context, name string, req UpdateRequest) (UpdateReply, error) {
	if req.Key == 0 && c.retries > 0 {
		req.Key = nextIdempotencyKey()
	}
	var out UpdateReply
	err := c.do(ctx, http.MethodPatch, "/matrices/"+name+"/rows", req, &out, req.Key != 0)
	return out, err
}

// idemSeed seeds process-unique idempotency keys: the high bits carry
// a once-per-process timestamp, the low 16 a counter — keys from
// different client processes (or restarts) occupy disjoint ranges.
var (
	idemOnce sync.Once
	idemSeed uint64
	idemCtr  atomic.Uint64
)

func nextIdempotencyKey() uint64 {
	idemOnce.Do(func() { idemSeed = uint64(time.Now().UnixNano()) << 16 })
	k := idemSeed + idemCtr.Add(1)
	if k == 0 { // zero means "no key" on the wire
		k = idemSeed + idemCtr.Add(1)
	}
	return k
}

// ReplaceRow replaces one row of a served matrix with the given
// (col, value) entries (unlisted cells become zero).
func (c *Client) ReplaceRow(ctx context.Context, name string, row int, entries [][2]int64) (UpdateReply, error) {
	return c.UpdateRows(ctx, name, UpdateRequest{Updates: []RowUpdate{{Row: row, Entries: entries}}})
}

// Matrices lists the served matrices.
func (c *Client) Matrices(ctx context.Context) ([]MatrixInfo, error) {
	var out []MatrixInfo
	err := c.Do(ctx, http.MethodGet, "/matrices", nil, &out)
	return out, err
}

// Estimate runs one estimation query. Estimates are read-only despite
// the POST, so a retrying client resends them freely.
func (c *Client) Estimate(ctx context.Context, req Request) (*Result, error) {
	var out Result
	if err := c.do(ctx, http.MethodPost, "/estimate", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// EstimateBatch runs many estimation queries against a single server
// admission slot. The returned items match the queries in order; a
// per-query failure is reported in its item, not as a call error.
// Read-only like Estimate, so retry-safe.
func (c *Client) EstimateBatch(ctx context.Context, reqs []Request) ([]BatchItem, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/estimate/batch", BatchRequest{Queries: reqs}, &out, true); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Stats fetches the aggregate serving statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.Do(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Health checks the server's liveness endpoint. A nil error means the
// server answered GET /v1/healthz with a 2xx.
func (c *Client) Health(ctx context.Context) error {
	return c.Do(ctx, http.MethodGet, "/healthz", nil, nil)
}
