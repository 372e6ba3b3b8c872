#include "net/forecast_service.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "net/json.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace fab::net {

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

HttpResponse ErrorResponse(const Status& status) {
  return HttpResponse::Json(
      HttpStatusFor(status),
      "{\"error\":" + EscapeJson(status.ToString()) + "}");
}

/// Answers a /predict with `status`; a 429 carries the shard's
/// Retry-After.
void SendError(const Responder& responder, const Status& status,
               const ShardedRouter& router, size_t shard) {
  HttpResponse response = ErrorResponse(status);
  if (response.status_code == 429) {
    response.headers.emplace_back(
        "Retry-After", std::to_string(router.RetryAfterSeconds(shard)));
  }
  responder.Send(std::move(response));
}

/// The 200 body: {"forecasts":[...],"shard":N}.
std::string ForecastsBody(const std::vector<double>& forecasts, size_t shard) {
  std::string body = "{\"forecasts\":[";
  for (size_t i = 0; i < forecasts.size(); ++i) {
    if (i != 0) body += ",";
    body += JsonNumber(forecasts[i]);
  }
  body += "],\"shard\":" + std::to_string(shard) + "}";
  return body;
}

}  // namespace

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 413;
    case StatusCode::kUnavailable: return 429;
    case StatusCode::kFailedPrecondition: return 503;
    default: return 500;
  }
}

void ForecastService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/predict",
                 [this](const HttpRequest& request, Responder responder) {
                   HandlePredict(request, std::move(responder));
                 });
  server->Handle("GET", "/statusz",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleStatusz(request, std::move(responder));
                 });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleHealthz(request, std::move(responder));
                 });
  debug_ = std::make_unique<DebugService>(server, router_);
  debug_->RegisterRoutes(server);
}

void ForecastService::HandlePredict(const HttpRequest& request,
                                    Responder responder) {
  FAB_TRACE_SCOPE("net/predict");
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    responder.Send(ErrorResponse(parsed.status()));
    return;
  }
  const JsonValue& doc = *parsed;

  serve::ModelKey key;
  Result<std::string> period = doc.GetString("period");
  Result<std::string> model = doc.GetString("model");
  Result<double> window = doc.GetNumber("window");
  if (!period.ok() || !model.ok() || !window.ok()) {
    responder.Send(ErrorResponse(Status::InvalidArgument(
        "body requires string \"period\", string \"model\" and number "
        "\"window\"")));
    return;
  }
  key.period = std::move(*period);
  key.model = std::move(*model);
  key.window = static_cast<int>(*window);
  if (static_cast<double>(key.window) != *window || key.window < 1) {
    responder.Send(ErrorResponse(
        Status::InvalidArgument("\"window\" must be a positive integer")));
    return;
  }

  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->array().empty()) {
    responder.Send(ErrorResponse(Status::InvalidArgument(
        "body requires a non-empty \"rows\" array of feature arrays")));
    return;
  }
  // One row-major block for the whole request. Every row must be as wide
  // as the first; the shard checks that width against the model's. The
  // shape is checked before reserving, so the reservation is bounded by
  // the cells actually parsed.
  const size_t n = rows->array().size();
  const JsonValue& first = rows->array().front();
  const size_t width = first.is_array() ? first.array().size() : 0;
  for (const JsonValue& row : rows->array()) {
    if (!row.is_array()) {
      responder.Send(ErrorResponse(Status::InvalidArgument(
          "every \"rows\" entry must be an array of numbers")));
      return;
    }
    if (row.array().size() != width) {
      responder.Send(ErrorResponse(Status::InvalidArgument(
          "every row must have " + std::to_string(width) +
          " features, like the first")));
      return;
    }
  }
  std::vector<double> block;
  block.reserve(n * width);
  for (const JsonValue& row : rows->array()) {
    for (const JsonValue& cell : row.array()) {
      if (!cell.is_number()) {
        responder.Send(ErrorResponse(Status::InvalidArgument(
            "every feature must be a number")));
        return;
      }
      block.push_back(cell.number());
    }
  }

  ShardedRouter* const router = router_;
  const size_t shard = router->ShardFor(key);
  // The callback fires only for an admitted request; a refusal is
  // answered below with the responder kept here.
  const Status submitted = router->Submit(
      key, std::move(block), n,
      [responder, router, shard](Result<std::vector<double>> forecasts) {
        if (forecasts.ok()) {
          responder.Send(
              HttpResponse::Json(200, ForecastsBody(*forecasts, shard)));
        } else {
          SendError(responder, forecasts.status(), *router, shard);
        }
      });
  if (!submitted.ok()) SendError(responder, submitted, *router, shard);
}

void ForecastService::HandleStatusz(const HttpRequest& request,
                                    Responder responder) {
  (void)request;
  FAB_TRACE_SCOPE("net/statusz");
  std::string body = "{\"router\":" + router_->StatszJson() +
                     ",\"metrics\":" + obs::ExportMetrics() + "}";
  responder.Send(HttpResponse::Json(200, std::move(body)));
}

void ForecastService::HandleHealthz(const HttpRequest& request,
                                    Responder responder) {
  (void)request;
  responder.Send(HttpResponse::Json(200, "{\"status\":\"ok\"}"));
}

}  // namespace fab::net
