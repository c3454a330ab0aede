include Rla_json.Json
