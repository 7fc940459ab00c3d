"""HTTP surface of the guard proxy.

Endpoints:
  POST /benchmark     initialise the benchmark and mint the first token
  POST /annotate      guarded labelling call (conditional request required)
  GET  /token         current token metadata
  POST /admin/detect  run the detection workflow immediately

Conditional semantics: /annotate demands exactly one of If-Match (a weak
ETag carrying a token id) or If-Unmodified-Since (an HTTP date). A request
without either gets 428 Precondition Required; a malformed one gets 400.
"""

from __future__ import annotations

from .engine import OUTCOME_ABORTED, TRIGGER_MANUAL, GuardEngine, UpstreamUnreachable
from .httpbase import JsonHttpServer
from .token import ETagParseError, parse_etag, validators
from .types import BenchmarkItem, ContractError, ThresholdRules, parse_http_date
from .wire import WireFormatError, parse_wire_request


class ProxyServer(JsonHttpServer):
    def __init__(self, config, engine: GuardEngine):
        self.config = config
        self.engine = engine
        super().__init__(config.listen_host, config.listen_port, self._route)

    # --------------------------------------------------------------- routing

    def _route(self, method: str, path: str, body, headers):
        if method == "POST" and path == "/benchmark":
            return self._post_benchmark(body)
        if method == "POST" and path == "/annotate":
            return self._post_annotate(body, headers)
        if method == "GET" and path == "/token":
            return self._get_token()
        if method == "POST" and path == "/admin/detect":
            return self._post_detect()
        return 404, {}, {"error": f"no route for {method} {path}"}

    def _post_benchmark(self, body):
        if not isinstance(body, dict) or not isinstance(body.get("items"), list):
            return 400, {}, {"error": "body must carry an 'items' array"}
        try:
            items = [BenchmarkItem.from_dict(entry) for entry in body["items"]]
            rules = (
                ThresholdRules.from_dict(body["rules"])
                if "rules" in body
                else self.config.rules
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return 400, {}, {"error": f"invalid manifest: {exc}"}
        try:
            token = self.engine.initialize_benchmark(
                items, rules, dataset_id=body.get("dataset_id")
            )
        except ContractError as exc:
            return 400, {}, {"error": f"invalid manifest: {exc}"}
        except UpstreamUnreachable as exc:
            return 502, {}, {"error": str(exc)}
        return 201, validators(token), token.metadata()

    def _parse_precondition(self, headers):
        """Returns (token_ref, error_response). Exactly one conditional
        header must be present."""
        if_match = headers.get("If-Match")
        if_unmodified = headers.get("If-Unmodified-Since")
        if if_match is None and if_unmodified is None:
            return None, (
                428,
                {},
                {"error": "a conditional header (If-Match or If-Unmodified-Since) is required"},
            )
        if if_match is not None and if_unmodified is not None:
            return None, (
                400,
                {},
                {"error": "send exactly one of If-Match and If-Unmodified-Since"},
            )
        if if_match is not None:
            try:
                return ("etag", parse_etag(if_match)), None
            except ETagParseError as exc:
                return None, (400, {}, {"error": str(exc)})
        try:
            return ("date", parse_http_date(if_unmodified)), None
        except (ValueError, TypeError) as exc:
            return None, (400, {}, {"error": f"unparseable If-Unmodified-Since: {exc}"})

    def _post_annotate(self, body, headers):
        try:
            url, max_results = parse_wire_request(body)
        except WireFormatError as exc:
            return 400, {}, {"error": str(exc)}
        token_ref, error_response = self._parse_precondition(headers)
        if error_response is not None:
            return error_response
        return self.engine.annotate(url, max_results, token_ref)

    def _get_token(self):
        current = self.engine.store.current
        if current is None:
            return 404, {}, {"error": "no behaviour token minted yet"}
        return 200, validators(current), current.metadata()

    def _post_detect(self):
        if not self.engine.initialized:
            return 409, {}, {"error": "initialise a benchmark before running detection"}
        run = self.engine.run_detection(TRIGGER_MANUAL)
        payload = {
            "outcome": run.outcome,
            "old_token_id": run.old_token_id,
            "new_token_id": run.new_token_id,
            "reason": run.reason,
            "report": run.report.summary_dict() if run.report is not None else None,
        }
        if run.outcome == OUTCOME_ABORTED:
            return 502, {}, payload
        return 202, {}, payload
