package api

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// docRoutes are the routes docs/API.md shows JSON for, with their wire
// types: the request body (nil: the route takes none) and the 200
// response. Any error body is an ErrorResponse.
var docRoutes = map[string]struct{ req, resp reflect.Type }{
	"POST /v1/sessions":                 {reflect.TypeFor[CreateSessionRequest](), reflect.TypeFor[SessionStats]()},
	"GET /v1/sessions":                  {nil, reflect.TypeFor[ListSessionsResponse]()},
	"GET /v1/sessions/{name}":           {nil, reflect.TypeFor[SessionStats]()},
	"POST /v1/sessions/{name}/events":   {reflect.TypeFor[EventsRequest](), reflect.TypeFor[EventsResponse]()},
	"POST /v1/sessions/{name}/reach":    {reflect.TypeFor[BatchReachRequest](), reflect.TypeFor[BatchReachResponse]()},
	"GET /v1/sessions/{name}/lineage":   {nil, reflect.TypeFor[LineageResponse]()},
	"GET /v1/sessions/{name}/integrity": {nil, reflect.TypeFor[SessionIntegrity]()},
	"GET /v1/replication/status":        {nil, reflect.TypeFor[ReplicationStatus]()},
	"POST /v1/replication/promote":      {nil, reflect.TypeFor[ReplicationStatus]()},
	"GET /v1/cluster/map":               {nil, reflect.TypeFor[ClusterMap]()},
	"GET /v1/cluster/health":            {nil, reflect.TypeFor[ClusterHealth]()},
	"POST /v1/cluster/move":             {reflect.TypeFor[MoveRequest](), reflect.TypeFor[MoveResponse]()},
	"POST /v1/cluster/release":          {reflect.TypeFor[ReleaseRequest](), reflect.TypeFor[ReleaseResponse]()},
}

// docExample is one JSON body docs/API.md shows: a curl -d request, a
// response in the "# " comment lines under a curl, or a json block,
// which answers the curl before it.
type docExample struct {
	line  int    // 1-based, in docs/API.md
	route string // a docRoutes key, "" when no curl came before
	req   bool
	body  string
}

var (
	curlMethod = regexp.MustCompile(`-X ?([A-Z]+)`)
	curlURL    = regexp.MustCompile(`\S*/v1/[^\s']*`)
	curlBody   = regexp.MustCompile(`(?s)-d '([^']*)'`)
)

// docExamples reads the JSON examples out of the doc's sh and json
// blocks, naming each curl's route by the pattern mux serves it under.
func docExamples(t *testing.T, doc string, mux *http.ServeMux) []docExample {
	t.Helper()
	var out []docExample
	lines := strings.Split(doc, "\n")
	fence, route := "", ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "```") {
			if fence == "" {
				fence = strings.TrimPrefix(line, "```") + " " // an open fence, even with no language
			} else {
				fence = ""
			}
			continue
		}
		switch {
		case fence == "json ":
			start := i
			var body []string
			for ; !strings.HasPrefix(lines[i], "```"); i++ {
				body = append(body, lines[i])
			}
			i--
			out = append(out, docExample{start + 1, route, false, strings.Join(body, "\n")})
		case fence == "sh " && strings.HasPrefix(strings.TrimSpace(line), "curl "):
			start, cmd := i, line
			for strings.HasSuffix(strings.TrimSpace(lines[i]), `\`) {
				i++
				cmd += "\n" + lines[i]
			}
			u := strings.Trim(curlURL.FindString(cmd), `'"`)
			if u == "" {
				route = "" // pprof, on the debug listener
				continue
			}
			method := http.MethodGet
			body := curlBody.FindStringSubmatch(cmd)
			if m := curlMethod.FindStringSubmatch(cmd); m != nil {
				method = m[1]
			} else if body != nil {
				method = http.MethodPost
			}
			req, err := http.NewRequest(method, "http://doc.example"+u[strings.Index(u, "/v1/"):], nil)
			if err != nil {
				t.Fatalf("API.md:%d: %v", start+1, err)
			}
			_, route = mux.Handler(req)
			if body != nil {
				out = append(out, docExample{start + 1, route, true, body[1]})
			}
		case fence == "sh " && strings.HasPrefix(line, "# {"):
			start, body := i, strings.TrimPrefix(line, "# ")
			for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "#  ") {
				i++
				body += "\n" + strings.TrimPrefix(lines[i], "#")
			}
			out = append(out, docExample{start + 1, route, false, body})
		}
	}
	return out
}

// TestAPIDocMatchesTheWireTypes checks docs/API.md against the types
// here: every complete JSON example decodes, with no field left over,
// into the wire type of its route — a request body into the request
// type, a response into the response type or, when it holds an
// "error", into ErrorResponse — and every json field of those types is
// named in the doc. A field dropped from a type fails the examples
// still showing it; a field added fails until the doc names it.
func TestAPIDocMatchesTheWireTypes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	mux := http.NewServeMux()
	for pattern := range docRoutes {
		mux.HandleFunc(pattern, func(http.ResponseWriter, *http.Request) {})
	}

	shown := map[string]bool{}
	errorShown := false
	for _, ex := range docExamples(t, doc, mux) {
		if !json.Valid([]byte(ex.body)) {
			continue // elided with … or a type name: not a complete example
		}
		var typ reflect.Type
		var probe map[string]json.RawMessage
		switch types, known := docRoutes[ex.route]; {
		case json.Unmarshal([]byte(ex.body), &probe) == nil && probe["error"] != nil && !ex.req:
			typ, errorShown = reflect.TypeFor[ErrorResponse](), true
		case !known:
			t.Errorf("API.md:%d: JSON for route %q, which docRoutes does not name: %s", ex.line, ex.route, ex.body)
			continue
		case ex.req && types.req == nil:
			t.Errorf("API.md:%d: a request body for %s, which takes none", ex.line, ex.route)
			continue
		case ex.req:
			typ = types.req
		default:
			typ = types.resp
		}
		shown[ex.route] = true
		dec := json.NewDecoder(strings.NewReader(ex.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(reflect.New(typ).Interface()); err != nil {
			t.Errorf("API.md:%d: example for %s does not decode as %s: %v\n%s", ex.line, ex.route, typ.Name(), err, ex.body)
		}
	}
	for route := range docRoutes {
		if !shown[route] {
			t.Errorf("API.md shows no complete JSON example for %s", route)
		}
	}
	if !errorShown {
		t.Error("API.md shows no complete error body")
	}

	types := []reflect.Type{reflect.TypeFor[ErrorResponse]()}
	for _, rt := range docRoutes {
		if rt.req != nil {
			types = append(types, rt.req)
		}
		types = append(types, rt.resp)
	}
	for field, typ := range jsonFields(types) {
		if !strings.Contains(doc, `"`+field+`"`) && !strings.Contains(doc, "`"+field+"`") {
			t.Errorf("API.md never names %s's field %q", typ, field)
		}
	}
}

// jsonFields maps every json field name of the types, and of the
// structs they hold, to a type that has it.
func jsonFields(types []reflect.Type) map[string]string {
	fields := map[string]string{}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" || !f.IsExported() {
				continue
			}
			if name == "" {
				name = f.Name
			}
			if _, ok := fields[name]; !ok {
				fields[name] = typ.Name()
			}
			walk(f.Type)
		}
	}
	for _, typ := range types {
		walk(typ)
	}
	return fields
}
