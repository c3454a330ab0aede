include module type of struct include Rla_json.Json end
