package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
)

// OpenAPI 3.1 generation. The document is derived from the same route table
// the mux registers from (routes.go), so GET /api/v1/openapi.json describes
// exactly the surface the serving node mounts — no hand-maintained spec to
// drift. Schemas are deliberately coarse (the JSON documents are described
// in docs/API.md); what the generator guarantees is the path/method/
// parameter/status inventory.

var pathVarRe = regexp.MustCompile(`\{([a-zA-Z]+)\}`)

// OpenAPIDoc builds the OpenAPI 3.1 document for the given families.
func OpenAPIDoc(families ...string) map[string]any {
	paths := map[string]any{}
	for _, r := range MountedRoutes(families...) {
		if !strings.HasPrefix(r.Pattern, "/api/v1/") && r.Pattern != "/api/v1" {
			// The liveness probe and the exposition surface are documented
			// in docs/API.md but are outside the versioned contract.
			continue
		}
		op := map[string]any{
			"summary":   r.Summary,
			"responses": responsesOf(r),
		}
		if r.Desc != "" {
			op["description"] = r.Desc
		}
		var params []any
		for _, v := range pathVarRe.FindAllStringSubmatch(r.Pattern, -1) {
			params = append(params, map[string]any{
				"name": v[1], "in": "path", "required": true,
				"schema": map[string]any{"type": "string"},
			})
		}
		for _, p := range r.Params {
			params = append(params, map[string]any{
				"name": p.Name, "in": "query", "required": false,
				"description": p.Desc,
				"schema":      map[string]any{"type": "string"},
			})
		}
		if params != nil {
			op["parameters"] = params
		}
		if r.Body {
			op["requestBody"] = map[string]any{
				"required": true,
				"content": map[string]any{
					"application/json": map[string]any{
						"schema": map[string]any{"type": "object"},
					},
				},
			}
		}
		entry, ok := paths[r.Pattern].(map[string]any)
		if !ok {
			entry = map[string]any{}
			paths[r.Pattern] = entry
		}
		entry[strings.ToLower(r.Method)] = op
	}
	return map[string]any{
		"openapi": "3.1.0",
		"info": map[string]any{
			"title":       "selfheal workflow API",
			"version":     "1",
			"description": "Self-healing workflow system under attacks: run submission, IDS alert delivery, recovery observation. Error responses share the envelope {\"error\": {\"code\", \"message\"}} (docs/API.md).",
		},
		"paths": paths,
		"components": map[string]any{
			"schemas": map[string]any{
				"Error": map[string]any{
					"type": "object",
					"properties": map[string]any{
						"error": map[string]any{
							"type": "object",
							"properties": map[string]any{
								"code":    map[string]any{"type": "string"},
								"message": map[string]any{"type": "string"},
							},
						},
					},
				},
			},
		},
	}
}

func responsesOf(r Route) map[string]any {
	out := make(map[string]any, len(r.Responses))
	codes := make([]string, 0, len(r.Responses))
	for c := range r.Responses {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		resp := map[string]any{"description": r.Responses[c]}
		if c[0] == '4' || c[0] == '5' {
			resp["content"] = map[string]any{
				"application/json": map[string]any{
					"schema": map[string]any{"$ref": "#/components/schemas/Error"},
				},
			}
		}
		out[c] = resp
	}
	return out
}

// handleOpenAPI serves the generated document for a server's families. It
// is encoded once, at mount, into the bytes writeJSON would write for it
// (json.Encoder.Encode: Marshal's output and a newline), so the tree of
// maps does not stay alive behind the handler.
func handleOpenAPI(families ...string) http.HandlerFunc {
	doc, err := json.Marshal(OpenAPIDoc(families...))
	if err != nil {
		// Maps of strings, slices and bools always encode: only a bug
		// gets here.
		panic(fmt.Sprintf("httpapi: encoding the OpenAPI document: %v", err))
	}
	doc = append(doc, '\n')
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc) // a failed write is the client's loss, as in writeJSON
	}
}
